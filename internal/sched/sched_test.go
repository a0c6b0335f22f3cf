package sched

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
)

func ranaOpts() Options {
	return Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.Conventional{},
	}
}

func TestScheduleWholeNetworks(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		plan, err := Schedule(net, cfg, ranaOpts())
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		if len(plan.Layers) != len(net.Layers) {
			t.Fatalf("%s: %d plans for %d layers", net.Name, len(plan.Layers), len(net.Layers))
		}
		if plan.Energy.Total() <= 0 || plan.ExecTime <= 0 {
			t.Errorf("%s: degenerate plan totals", net.Name)
		}
		// α is invariant: the plan's MAC count equals the network's.
		if plan.Totals.MACs != net.TotalMACs() {
			t.Errorf("%s: plan MACs %d != network %d", net.Name, plan.Totals.MACs, net.TotalMACs())
		}
	}
}

// TestSchedulerIsOptimalOverItsSpace: the chosen plan is no worse than
// every candidate in the enumerated space (brute-force check on a layer).
func TestSchedulerIsOptimalOverItsSpace(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l, _ := models.VGG().Layer("conv4_2")
	opts := ranaOpts()
	best, _, err := ExploreLayer(l, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range opts.Patterns {
		for _, ti := range candidateTilings(l, cfg, opts) {
			if !ti.FitsCore(l, cfg) {
				continue
			}
			lp, err := Evaluate(l, k, ti, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !lp.Analysis.Feasible {
				continue
			}
			if lp.Energy.Total() < best.Energy.Total()-1e-6 {
				t.Fatalf("candidate %v %v beats chosen plan: %.3e < %.3e",
					k, ti, lp.Energy.Total(), best.Energy.Total())
			}
		}
	}
}

// TestHybridBeatsSinglePattern: the OD+WD hybrid never loses to OD-only
// or WD-only on any layer (it subsumes both spaces) — the Stage 2 claim.
func TestHybridBeatsSinglePattern(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := ranaOpts()
	odOnly, wdOnly := opts, opts
	odOnly.Patterns = []pattern.Kind{pattern.OD}
	wdOnly.Patterns = []pattern.Kind{pattern.WD}
	for _, l := range models.VGG().Layers {
		h, _, err := ExploreLayer(l, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, single := range []Options{odOnly, wdOnly} {
			s, _, err := ExploreLayer(l, cfg, single)
			if err != nil {
				continue // single pattern may be infeasible; hybrid still wins
			}
			if h.Energy.Total() > s.Energy.Total()+1e-6 {
				t.Errorf("%s: hybrid %.3e worse than single %v %.3e",
					l.Name, h.Energy.Total(), single.Patterns, s.Energy.Total())
			}
		}
	}
}

// TestVGGShallowLayersPickWD reproduces the Fig. 17 mechanism: on VGG's
// large shallow layers (2–8 in the paper's numbering), OD's output
// storage exceeds the 1.454 MB capacity, so the hybrid schedule picks WD.
func TestVGGShallowLayersPickWD(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	plan, err := Schedule(models.VGG(), cfg, ranaOpts())
	if err != nil {
		t.Fatal(err)
	}
	wd := 0
	for i, lp := range plan.Layers {
		l := plan.Network.Layers[i]
		// Layers whose output set exceeds capacity must not run OD with
		// spilled partials if WD is cheaper; count WD picks among the
		// first 8 layers.
		if i < 8 && lp.Analysis.Pattern == pattern.WD {
			wd++
		}
		_ = l
	}
	if wd < 4 {
		t.Errorf("only %d of VGG's first 8 layers picked WD; the hybrid pattern should favor WD there", wd)
	}
	// Deep layers fit OD comfortably and should mostly pick it.
	od := 0
	for i := 8; i < len(plan.Layers); i++ {
		if plan.Layers[i].Analysis.Pattern == pattern.OD {
			od++
		}
	}
	if od < 3 {
		t.Errorf("only %d of VGG's deep layers picked OD", od)
	}
}

func TestRefreshAccountingPerController(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l, _ := models.VGG().Layer("conv4_2")
	conv := ranaOpts()
	conv.RefreshInterval = retention.TypicalRetentionTime
	opt := conv
	opt.Controller = memctrl.RefreshOptimized{}
	cPlan, _, err := ExploreLayer(l, cfg, conv)
	if err != nil {
		t.Fatal(err)
	}
	oPlan, _, err := ExploreLayer(l, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if oPlan.Counts.Refreshes > cPlan.Counts.Refreshes {
		t.Errorf("optimized controller refreshes more: %d > %d",
			oPlan.Counts.Refreshes, cPlan.Counts.Refreshes)
	}
}

func TestSRAMNeverRefreshes(t *testing.T) {
	cfg := hw.TestAccelerator() // SRAM
	opts := Options{Patterns: []pattern.Kind{pattern.ID}, NaturalTiling: true}
	plan, err := Schedule(models.AlexNet(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Totals.Refreshes != 0 || plan.Energy.Refresh != 0 {
		t.Error("SRAM design accrued refresh energy")
	}
}

func TestNaturalTilingValues(t *testing.T) {
	cfg := hw.TestAccelerator()
	l, _ := models.ResNet().Layer("res4a_branch1")
	nat := NaturalTiling(l, cfg)
	want := pattern.Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 14}
	if nat != want {
		t.Errorf("natural tiling = %v, want %v", nat, want)
	}
	// Small dimensions clamp.
	small := models.ConvLayer{Name: "s", N: 3, H: 8, L: 8, M: 2, K: 1, S: 1}
	nat = NaturalTiling(small, cfg)
	if nat.Tm != 2 || nat.Tn != 3 || nat.Tc != 8 {
		t.Errorf("clamped natural tiling = %v", nat)
	}
}

func TestNaturalModeTakesFirstFeasible(t *testing.T) {
	// VGG conv1_2 under OD: the natural Tn=16 input slab (16·224² words)
	// exceeds the 1.454 MB buffer, so the baseline reduces Tn until
	// feasible rather than optimizing.
	cfg := hw.TestAcceleratorEDRAM()
	l, _ := models.VGG().Layer("conv1_2")
	opts := Options{
		Patterns:        []pattern.Kind{pattern.OD},
		RefreshInterval: retention.TypicalRetentionTime,
		Controller:      memctrl.Conventional{},
		NaturalTiling:   true,
	}
	lp, _, err := ExploreLayer(l, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Analysis.Tiling.Tn >= 16 {
		t.Errorf("expected reduced Tn, got %v", lp.Analysis.Tiling)
	}
	if !lp.Analysis.Feasible {
		t.Error("chosen plan infeasible")
	}
}

func TestFixedTiling(t *testing.T) {
	cfg := hw.DaDianNao()
	ti := pattern.Tiling{Tm: 64, Tn: 64, Tr: 1, Tc: 1}
	opts := Options{
		Patterns:        []pattern.Kind{pattern.WD},
		RefreshInterval: retention.TypicalRetentionTime,
		Controller:      memctrl.Conventional{},
		FixedTiling:     &ti,
	}
	plan, err := Schedule(models.AlexNet(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range plan.Layers {
		if lp.Analysis.Tiling != ti {
			t.Fatalf("tiling %v escaped the fixed point", lp.Analysis.Tiling)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Error("empty pattern space should fail")
	}
	if err := (Options{Patterns: []pattern.Kind{pattern.OD}, Controller: memctrl.Conventional{}}).Validate(); err == nil {
		t.Error("controller without interval should fail")
	}
	bad := pattern.Tiling{}
	if err := (Options{Patterns: []pattern.Kind{pattern.OD}, FixedTiling: &bad}).Validate(); err == nil {
		t.Error("invalid fixed tiling should fail")
	}
}

func TestScheduleRejectsInvalidInputs(t *testing.T) {
	cfg := hw.TestAccelerator()
	if _, err := Schedule(models.Network{Name: "x"}, cfg, ranaOpts()); err == nil {
		t.Error("empty network should fail")
	}
	badCfg := cfg
	badCfg.ArrayM = 0
	if _, err := Schedule(models.AlexNet(), badCfg, ranaOpts()); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := Schedule(models.AlexNet(), cfg, Options{}); err == nil {
		t.Error("invalid options should fail")
	}
}

func TestRefreshFlags(t *testing.T) {
	lp := LayerPlan{
		Needs: memctrl.Needs{Inputs: true, Weights: true},
		Alloc: memctrl.Allocation{InputBanks: 2, OutputBanks: 3, WeightBanks: 1},
	}
	flags := lp.RefreshFlags(10)
	want := []bool{true, true, false, false, false, true, false, false, false, false}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("flags = %v, want %v", flags, want)
		}
	}
	// Truncation at the bank budget.
	short := lp.RefreshFlags(3)
	if len(short) != 3 {
		t.Errorf("len = %d", len(short))
	}
}

func TestEnergyUsesDesignTech(t *testing.T) {
	l, _ := models.ResNet().Layer("res4a_branch1")
	ti := pattern.Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 14}
	sramPlan, err := Evaluate(l, pattern.ID, ti, hw.TestAccelerator(), Options{Patterns: []pattern.Kind{pattern.ID}})
	if err != nil {
		t.Fatal(err)
	}
	edramPlan, err := Evaluate(l, pattern.ID, ti, hw.TestAcceleratorEDRAM(), Options{Patterns: []pattern.Kind{pattern.ID}})
	if err != nil {
		t.Fatal(err)
	}
	// Same traffic, different per-access energy.
	if sramPlan.Counts.BufferAccesses != edramPlan.Counts.BufferAccesses {
		t.Fatal("traffic should not depend on tech")
	}
	wantRatio := energy.SRAMAccessPJ / energy.EDRAMAccessPJ
	gotRatio := sramPlan.Energy.BufferAccess / edramPlan.Energy.BufferAccess
	if gotRatio < wantRatio-0.01 || gotRatio > wantRatio+0.01 {
		t.Errorf("buffer energy ratio = %.3f, want %.3f", gotRatio, wantRatio)
	}
}

func TestPlanExecTimeAggregates(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	plan, err := Schedule(models.AlexNet(), cfg, ranaOpts())
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, lp := range plan.Layers {
		sum += lp.Analysis.ExecTime
	}
	if sum != plan.ExecTime {
		t.Errorf("exec time %v != sum %v", plan.ExecTime, sum)
	}
}

func TestScheduleContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScheduleContext(ctx, models.VGG(), hw.TestAcceleratorEDRAM(), ranaOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The error reports how far the schedule got before stopping.
	if !strings.Contains(err.Error(), "canceled at layer") {
		t.Errorf("error %q does not name the layer reached", err)
	}
}

func TestScheduleContextBackgroundMatchesSchedule(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	net := models.AlexNet()
	a, err := Schedule(net, cfg, ranaOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleContext(context.Background(), net, cfg, ranaOpts())
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := json.Marshal(Encode(a))
	gb, _ := json.Marshal(Encode(b))
	if string(ga) != string(gb) {
		t.Error("ScheduleContext diverged from Schedule")
	}
}

// TestAdmitMatchesFitsCore: the explore arena's in-place core-limit
// check admits exactly the tilings Tiling.FitsCore admits, on every
// zoo layer's candidate space, under the test accelerator and under
// one with a quarter of its core storage.
func TestAdmitMatchesFitsCore(t *testing.T) {
	roomy := hw.TestAcceleratorEDRAM()
	tight := roomy
	tight.LocalInput, tight.LocalOutput, tight.LocalWeight = roomy.LocalInput/4, roomy.LocalOutput/4, roomy.LocalWeight/4
	s := newExploreState()
	admitted, rejected := 0, 0
	for _, cfg := range []hw.Config{roomy, tight} {
		for _, net := range models.Benchmarks() {
			for _, l := range net.Layers {
				s.e, s.cfg = effectiveLayer(l), cfg
				for _, ti := range candidateTilings(l, cfg, ranaOpts()) {
					want := ti.FitsCore(s.e, cfg)
					if got := s.admit(ti); got != want {
						t.Fatalf("%s/%s %v on %s: admit %v, FitsCore %v", net.Name, l.Name, ti, cfg.Name, got, want)
					}
					if want {
						admitted++
					} else {
						rejected++
					}
				}
			}
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("%d admitted, %d rejected: the sample must exercise both outcomes", admitted, rejected)
	}
}

// panicController poisons the exact evaluator: every refresh pricing
// panics, inside whichever search worker reaches it.
type panicController struct{}

func (panicController) Name() string { return "panic" }
func (panicController) WordsPerPulse(memctrl.Allocation, memctrl.Needs, int, int) uint64 {
	panic("poisoned controller")
}

// TestWorkerPanicUnwrapped: a panic inside a search worker surfaces as
// a PanicError carrying the worker's own value and stack. The message
// is "panic: <value>", never the re-raised wrapper with its stack bytes.
func TestWorkerPanicUnwrapped(t *testing.T) {
	opts := ranaOpts()
	opts.Controller, opts.Parallelism, opts.DisableMemo = panicController{}, 2, true
	_, err := Schedule(models.AlexNet(), hw.TestAcceleratorEDRAM(), opts)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a PanicError", err, err)
	}
	if want := "sched: AlexNet/conv1: panic: poisoned controller"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if pe.Value != "poisoned controller" {
		t.Fatalf("PanicError.Value = %#v, want the worker's panic value", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "scanParallel") {
		t.Fatalf("PanicError.Stack is not the worker's stack:\n%s", pe.Stack)
	}
}
