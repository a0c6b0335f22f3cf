// The benchmark harness regenerates every table and figure of the paper —
// one Benchmark per artifact, each reporting that artifact's headline
// metric via b.ReportMetric — plus the design-choice ablations called out
// in DESIGN.md §6. Run with:
//
//	go test -bench=. -benchmem
package rana

import (
	"io"
	"testing"
	"time"

	"rana/internal/bits"
	"rana/internal/energy"
	"rana/internal/exec"
	"rana/internal/experiments"
	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/platform"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sim"
	"rana/internal/training"
)

// runArtifact drives the registered experiment printer (discarding the
// text) so every benchmark regenerates the artifact end to end.
func runArtifact(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B) { runArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B) { runArtifact(b, "table3") }

func BenchmarkFigure1(b *testing.B) {
	var refreshShare float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		refreshShare = rows[0].Share.Refresh
	}
	b.ReportMetric(refreshShare*100, "%refresh/stage0")
}

func BenchmarkFigure7(b *testing.B) {
	var over int
	for i := 0; i < b.N; i++ {
		over = 0
		for _, r := range experiments.Figure7() {
			if r.ExceedRT {
				over++
			}
		}
	}
	b.ReportMetric(float64(over), "layers>45us")
}

func BenchmarkFigure8(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		curve := experiments.Figure8()
		rate = curve[len(curve)/2].Rate
	}
	b.ReportMetric(rate, "midcurve-rate")
}

func BenchmarkFigure11(b *testing.B) {
	var atTolerable float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Figure11() {
			if r.Model == "ResNet" && r.Rate == 1e-5 {
				atTolerable = r.Relative
			}
		}
	}
	b.ReportMetric(atTolerable*100, "%rel-acc@1e-5")
}

// BenchmarkFigure11Empirical runs the actual retention-aware training
// loop (reduced problem size so one iteration stays near a second).
func BenchmarkFigure11Empirical(b *testing.B) {
	cfg := training.DefaultConfig()
	cfg.Epochs = 1
	var rel float64
	for i := 0; i < b.N; i++ {
		m := training.NewMethod(cfg, 80)
		rel = m.Run(1e-4).RelativeAccuracy()
	}
	b.ReportMetric(rel*100, "%rel-acc@1e-4")
}

func BenchmarkFigure12(b *testing.B) {
	var maxW float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Figure12() {
			if r.WeightMB > maxW {
				maxW = r.WeightMB
			}
		}
	}
	b.ReportMetric(maxW, "maxweightMB")
}

func BenchmarkFigure15(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure15()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Design == "RANA*(E-5)" && c.Model == "GEO MEAN" {
				geo = c.Energy.Total()
			}
		}
	}
	b.ReportMetric((1-geo)*100, "%saved-vs-S+ID")
}

func BenchmarkFigure16(b *testing.B) {
	var odRefreshAt720 float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Design == "eD+OD" && c.RetentionTime == 720*time.Microsecond {
				odRefreshAt720 = c.Refresh
			}
		}
	}
	b.ReportMetric(odRefreshAt720, "eD+OD-refresh@720us")
}

func BenchmarkFigure17(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure17()
		if err != nil {
			b.Fatal(err)
		}
		worst = 1.0
		for _, r := range rows {
			if r.Normalized.Total() < worst {
				worst = r.Normalized.Total()
			}
		}
	}
	b.ReportMetric((1-worst)*100, "%best-layer-saving")
}

func BenchmarkFigure18(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure18()
		if err != nil {
			b.Fatal(err)
		}
		caps := experiments.Fig18Capacities()
		var lo, hi float64
		for _, c := range cells {
			if c.Model == "AlexNet" && c.Design == "RANA (E-5)" {
				if c.CapacityWords == caps[0] {
					lo = c.Energy.Refresh
				}
				if c.CapacityWords == caps[5] {
					hi = c.Energy.Refresh
				}
			}
		}
		growth = hi - lo
	}
	b.ReportMetric(growth, "conv-refresh-growth")
}

func BenchmarkFigure19(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Figure19()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, c := range cells {
			if c.Design == "RANA*(E-5)" {
				sum += 1 - c.Energy.Total()
				n++
			}
		}
		saved = sum / float64(n)
	}
	b.ReportMetric(saved*100, "%saved-vs-DaDianNao")
}

func BenchmarkHeadline(b *testing.B) {
	var h experiments.HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		h, err = experiments.Headline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.RefreshRemovedVsEDID*100, "%refresh-removed")
	b.ReportMetric(h.OffChipSavedVsSID*100, "%offchip-saved")
	b.ReportMetric(h.EnergySavedVsSID*100, "%energy-saved")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationPattern quantifies what the hybrid pattern buys over
// single-pattern scheduling on VGG (the Fig. 17 effect).
func BenchmarkAblationPattern(b *testing.B) {
	p := platform.Test()
	net := models.VGG()
	single := platform.EDOD()
	hybrid := platform.RANA0()
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := p.Evaluate(single, net)
		if err != nil {
			b.Fatal(err)
		}
		h, err := p.Evaluate(hybrid, net)
		if err != nil {
			b.Fatal(err)
		}
		ratio = h.Energy().Total() / s.Energy().Total()
	}
	b.ReportMetric((1-ratio)*100, "%hybrid-saving")
}

// BenchmarkAblationController quantifies the refresh-optimized controller
// against the conventional one at 8× capacity, where unused-bank refresh
// hurts most (the Fig. 18 effect).
func BenchmarkAblationController(b *testing.B) {
	p := platform.Test()
	net := models.AlexNet()
	cap := uint64(hw.TestEDRAMWords) * 8
	var saving float64
	for i := 0; i < b.N; i++ {
		conv, err := p.Evaluate(platform.RANAE5().WithBufferWords(cap), net)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := p.Evaluate(platform.RANAStarE5().WithBufferWords(cap), net)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - opt.Energy().Refresh/conv.Energy().Refresh
	}
	b.ReportMetric(saving*100, "%refresh-saving@8x")
}

// BenchmarkAblationRetention quantifies what Stage 1's longer tolerable
// retention buys: RANA at 45 µs vs at 734 µs on ResNet.
func BenchmarkAblationRetention(b *testing.B) {
	p := platform.Test()
	net := models.ResNet()
	var saving float64
	for i := 0; i < b.N; i++ {
		short, err := p.Evaluate(platform.RANA0(), net)
		if err != nil {
			b.Fatal(err)
		}
		long, err := p.Evaluate(platform.RANAE5(), net)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - long.Energy().Total()/short.Energy().Total()
	}
	b.ReportMetric(saving*100, "%stage1-saving")
}

// BenchmarkAblationTiling compares the full tiling exploration against
// the natural-tiling baseline space under the same OD+WD patterns.
func BenchmarkAblationTiling(b *testing.B) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.GoogLeNet()
	full := sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	}
	natural := full
	natural.NaturalTiling = true
	var saving float64
	for i := 0; i < b.N; i++ {
		f, err := sched.Schedule(net, cfg, full)
		if err != nil {
			b.Fatal(err)
		}
		n, err := sched.Schedule(net, cfg, natural)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - f.Energy.Total()/n.Energy.Total()
	}
	b.ReportMetric(saving*100, "%exploration-saving")
}

// --- Microbenchmarks of the hot kernels ---

// BenchmarkAnalyzeLayer measures one closed-form layer characterization
// (the scheduler's inner loop).
func BenchmarkAnalyzeLayer(b *testing.B) {
	l, _ := models.VGG().Layer("conv4_2")
	cfg := hw.TestAcceleratorEDRAM()
	ti := pattern.Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pattern.MustAnalyze(l, pattern.OD, ti, cfg)
	}
}

// BenchmarkScheduleLayer measures one full layer exploration.
func BenchmarkScheduleLayer(b *testing.B) {
	l, _ := models.VGG().Layer("conv4_2")
	cfg := hw.TestAcceleratorEDRAM()
	opts := sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.ExploreLayer(l, cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFixedMAC measures the 16-bit MAC primitive.
func BenchmarkFixedMAC(b *testing.B) {
	var acc fixed.Acc
	a, w := fixed.Word(1234), fixed.Word(-567)
	for i := 0; i < b.N; i++ {
		acc = fixed.MAC(acc, a, w)
	}
	_ = acc
}

// BenchmarkExt1Differential regenerates the differential-refresh
// extension experiment.
func BenchmarkExt1Differential(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Extension1DifferentialRefresh()
		if err != nil {
			b.Fatal(err)
		}
		var diff, cons uint64
		for _, r := range rows {
			diff += r.Differential
			cons += r.Uniform45
		}
		ratio = float64(diff) / float64(cons)
	}
	b.ReportMetric(ratio, "diff/conservative")
}

// BenchmarkExt2GuardBand regenerates the guard-band sensitivity sweep.
func BenchmarkExt2GuardBand(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Extension2GuardBand()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.Total > worst {
				worst = r.Total
			}
		}
	}
	b.ReportMetric(worst, "worst-guard-total")
}

// BenchmarkFunctionalExecution measures the word-accurate execution
// engine on a small chained network (the Stage 3 runtime, physics
// included).
func BenchmarkFunctionalExecution(b *testing.B) {
	net := models.Network{Name: "bench-chain", Layers: []models.ConvLayer{
		{Name: "l0", Stage: "s", N: 2, H: 8, L: 8, M: 4, K: 3, S: 1, P: 1},
		{Name: "l1", Stage: "s", N: 4, H: 8, L: 8, M: 4, K: 1, S: 1, P: 0},
	}}
	cfg := hw.Config{
		Name: "bench-tiny", ArrayM: 2, ArrayN: 2, FrequencyHz: 200e6,
		LocalInput: 512, LocalOutput: 256, LocalWeight: 512,
		BufferWords: 4 * 512, BufferTech: energy.EDRAM, BankWords: 512,
	}
	plan, err := sched.Schedule(net, cfg, sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := bits.NewSplitMix64(1)
	input := make([]fixed.Word, net.Layers[0].InputWords())
	for i := range input {
		input[i] = fixed.Q88.FromFloat(rng.NormFloat64() * 0.25)
	}
	var weights [][]fixed.Word
	for _, l := range net.Layers {
		ws := make([]fixed.Word, l.WeightWords())
		for i := range ws {
			ws[i] = fixed.Q88.FromFloat(rng.NormFloat64() * 0.25)
		}
		weights = append(weights, ws)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := exec.New(cfg).Run(plan, input, weights)
		if err != nil {
			b.Fatal(err)
		}
		if rep.WordErrors != 0 {
			b.Fatal("unexpected corruption")
		}
	}
}

// BenchmarkWalkLayer measures the cycle-level walker on Layer-B.
func BenchmarkWalkLayer(b *testing.B) {
	l, _ := models.VGG().Layer("conv4_2")
	cfg := hw.TestAcceleratorEDRAM()
	ti := pattern.Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sim.Walk(l, pattern.OD, ti, cfg)
	}
}

// BenchmarkExt3Batch regenerates the batch-processing extension.
func BenchmarkExt3Batch(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Extension3Batch()
		if err != nil {
			b.Fatal(err)
		}
		best = 1
		for _, r := range rows {
			if r.PerImage < best {
				best = r.PerImage
			}
		}
	}
	b.ReportMetric((1-best)*100, "%best-per-image-saving")
}

// BenchmarkExt4Architecture regenerates the architecture-generality study.
func BenchmarkExt4Architecture(b *testing.B) {
	var star float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Extension4Architecture()
		if err != nil {
			b.Fatal(err)
		}
		star = rows[len(rows)-1].GeoMean
	}
	b.ReportMetric((1-star)*100, "%saved-vs-eD+ID")
}

// --- Facade entry points (the serving subsystem's unit of work) ---

// BenchmarkSchedule measures one full Stage-2 schedule per benchmark
// network through the public facade — the cost of a ranad /v1/schedule
// cache miss.
func BenchmarkSchedule(b *testing.B) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	}
	for _, net := range models.Benchmarks() {
		b.Run(net.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan, err := Schedule(net, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(plan.Energy.Total()/1e9, "mJ")
				}
			}
		})
	}
}

// BenchmarkCompile measures the full three-stage compilation per
// benchmark network — the cost of a ranad /v1/compile cache miss.
func BenchmarkCompile(b *testing.B) {
	for _, net := range models.Benchmarks() {
		b.Run(net.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := NewFramework().Compile(net)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(out.TolerableRetention.Microseconds()), "us-retention")
				}
			}
		})
	}
}
