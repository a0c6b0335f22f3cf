package exec

import (
	"testing"
	"time"

	"rana/internal/bits"
	"rana/internal/energy"
	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
)

// chainNet is a small 3-layer chainable network: 2×6×6 → 4×6×6 → 8×6×6
// → 4×3×3 (stride-2 tail), ≈7k MACs total.
func chainNet() models.Network {
	return models.Network{Name: "chain", Layers: []models.ConvLayer{
		{Name: "l0", Stage: "s", N: 2, H: 6, L: 6, M: 4, K: 3, S: 1, P: 1},
		{Name: "l1", Stage: "s", N: 4, H: 6, L: 6, M: 8, K: 1, S: 1, P: 0},
		{Name: "l2", Stage: "s", N: 8, H: 6, L: 6, M: 4, K: 3, S: 2, P: 1},
	}}
}

// tinyConfig is a 4-bank eDRAM accelerator; small BankWords keep the
// functional buffer compact. frequencyHz sets the decay regime.
func tinyConfig(freq float64) hw.Config {
	return hw.Config{
		Name:        "tiny",
		ArrayM:      2,
		ArrayN:      2,
		FrequencyHz: freq,
		LocalInput:  512,
		LocalOutput: 256,
		LocalWeight: 512,
		BufferWords: 4 * 512,
		BufferTech:  energy.EDRAM,
		BankWords:   512,
	}
}

func schedulePlan(t *testing.T, cfg hw.Config, interval time.Duration) *sched.Plan {
	t.Helper()
	plan, err := sched.Schedule(chainNet(), cfg, sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: interval,
		Controller:      memctrl.RefreshOptimized{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func randWeights(t *testing.T, net models.Network, seed uint64) [][]fixed.Word {
	t.Helper()
	rng := bits.NewSplitMix64(seed)
	out := make([][]fixed.Word, len(net.Layers))
	for i, l := range net.Layers {
		ws := make([]fixed.Word, l.WeightWords())
		for j := range ws {
			ws[j] = fixed.Q88.FromFloat(rng.NormFloat64() * 0.2)
		}
		out[i] = ws
	}
	return out
}

func randInput(net models.Network, seed uint64) []fixed.Word {
	rng := bits.NewSplitMix64(seed)
	in := make([]fixed.Word, net.Layers[0].InputWords())
	for i := range in {
		in[i] = fixed.Q88.FromFloat(rng.NormFloat64() * 0.3)
	}
	return in
}

// TestFastExecutionIsExactAndRefreshFree: at 200 MHz the whole network
// runs in microseconds — every lifetime beats the 734 µs tolerable
// retention, the compiled schedule disables all refresh, and the output
// is exact. This is the RANA end-to-end promise, executed on physics.
func TestFastExecutionIsExactAndRefreshFree(t *testing.T) {
	cfg := tinyConfig(200e6)
	plan := schedulePlan(t, cfg, retention.TolerableRetentionTime)
	e := New(cfg)
	rep, err := e.Run(plan, randInput(chainNet(), 1), randWeights(t, chainNet(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.WordErrors != 0 {
		t.Errorf("fast execution corrupted %d words", rep.WordErrors)
	}
	if rep.Counts.Refreshes != 0 {
		t.Errorf("refresh-free schedule issued %d refreshes", rep.Counts.Refreshes)
	}
	if rep.Counts.MACs != chainNet().TotalMACs() {
		t.Errorf("MACs = %d", rep.Counts.MACs)
	}
	if rep.Counts.DDRAccesses == 0 || rep.Counts.BufferAccesses == 0 {
		t.Error("counters not populated")
	}
	if rep.Energy.Total() <= 0 {
		t.Error("energy not accounted")
	}
}

// TestSlowExecutionCorruptsWithoutRefresh: at 20 kHz the network takes
// ≈100 model-milliseconds; with a refresh interval scheduled far above
// every cell's retention the flags stay off... to force the no-refresh
// regime we schedule at an interval longer than the execution, so no
// pulse ever fires, and the output decays.
func TestSlowExecutionCorruptsWithoutRefresh(t *testing.T) {
	cfg := tinyConfig(20e3)
	// Interval 1s: lifetimes (≈100 ms) are below it → flags off → no
	// refresh; but cell retention (≤100 ms) expires → corruption.
	plan := schedulePlan(t, cfg, time.Second)
	e := New(cfg)
	e.Seed = 7
	rep, err := e.Run(plan, randInput(chainNet(), 3), randWeights(t, chainNet(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Refreshes != 0 {
		t.Fatalf("expected no refresh, got %d", rep.Counts.Refreshes)
	}
	if rep.WordErrors == 0 {
		t.Error("expected decay corruption in the slow no-refresh regime")
	}
}

// TestSlowExecutionWithTightRefreshIsExact: same slow clock, but the
// schedule programs a refresh interval below every cell's retention time
// (9 µs < the distribution's 10 µs floor) — all flags come on and the
// result is exact at a large refresh cost.
func TestSlowExecutionWithTightRefreshIsExact(t *testing.T) {
	// 200 kHz: execution ≈9 model-ms, long enough for weak cells to
	// expire, while one clock cycle (5 µs) still fits the 9 µs period.
	cfg := tinyConfig(200e3)
	plan := schedulePlan(t, cfg, 9*time.Microsecond)
	e := New(cfg)
	e.Seed = 8
	rep, err := e.Run(plan, randInput(chainNet(), 5), randWeights(t, chainNet(), 6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counts.Refreshes == 0 {
		t.Fatal("tight schedule should refresh")
	}
	if rep.WordErrors != 0 {
		t.Errorf("refreshed execution corrupted %d words", rep.WordErrors)
	}
	if rep.Energy.Refresh <= 0 {
		t.Error("refresh energy should be accounted")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := tinyConfig(200e6)
	plan := schedulePlan(t, cfg, retention.TolerableRetentionTime)
	e := New(cfg)
	net := chainNet()
	if _, err := e.Run(nil, nil, nil); err == nil {
		t.Error("nil plan should fail")
	}
	if _, err := e.Run(plan, randInput(net, 1), nil); err == nil {
		t.Error("missing weights should fail")
	}
	ws := randWeights(t, net, 2)
	ws[0] = ws[0][:3]
	if _, err := e.Run(plan, randInput(net, 1), ws); err == nil {
		t.Error("short weights should fail")
	}
	// Non-chaining network.
	bad := models.Network{Name: "bad", Layers: []models.ConvLayer{
		{Name: "a", N: 2, H: 6, L: 6, M: 4, K: 3, S: 1, P: 1},
		{Name: "b", N: 3, H: 6, L: 6, M: 4, K: 1, S: 1, P: 0},
	}}
	badPlan, err := sched.Schedule(bad, cfg, sched.Options{
		Patterns:        []pattern.Kind{pattern.OD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(badPlan, randInput(bad, 1), randWeights(t, bad, 2)); err == nil {
		t.Error("non-chaining network should fail")
	}
}

// TestRunRefusesOtherBackends: the engine runs the configuration's
// default backend at nominal, so a plan compiled for approx-dram@v0.8
// is refused with the backend and point named, not priced as eDRAM.
func TestRunRefusesOtherBackends(t *testing.T) {
	cfg := tinyConfig(200e6)
	plan, err := sched.Schedule(chainNet(), cfg, sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
		Backend:         "approx-dram",
		OperatingPoint:  "v0.8",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(cfg).Run(plan, randInput(chainNet(), 1), randWeights(t, chainNet(), 2))
	if want := "exec: layer 0 (l0) was compiled for approx-dram@v0.8; the engine runs edram@nominal"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestSRAMExecution: the S+ID-style substrate runs without a controller
// and is exact regardless of time scale.
func TestSRAMExecution(t *testing.T) {
	cfg := tinyConfig(20e3).WithBufferTech(energy.SRAM) // deliberately slow
	plan, err := sched.Schedule(chainNet(), cfg, sched.Options{
		Patterns: []pattern.Kind{pattern.OD, pattern.WD},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(cfg).Run(plan, randInput(chainNet(), 1), randWeights(t, chainNet(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.WordErrors != 0 {
		t.Errorf("SRAM execution corrupted %d words", rep.WordErrors)
	}
	if rep.Counts.Refreshes != 0 || rep.Energy.Refresh != 0 {
		t.Error("SRAM must not refresh")
	}
	if rep.Counts.BufferAccesses == 0 {
		t.Error("buffer counter not populated")
	}
}

func TestFunctionalFlags(t *testing.T) {
	l := models.ConvLayer{Name: "f", N: 2, H: 6, L: 6, M: 4, K: 3, S: 1, P: 1}
	// din=72, dw=72, dout=144 with bankWords=100 over 4 banks:
	// inputs span bank 0, weights banks 0-1, outputs banks 1-2.
	flags := functionalFlags(l, memctrl.Needs{Weights: true}, 100, 4)
	want := []bool{true, true, false, false}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("flags = %v, want %v", flags, want)
		}
	}
	flags = functionalFlags(l, memctrl.Needs{Outputs: true}, 100, 4)
	want = []bool{false, true, true, false}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("output flags = %v, want %v", flags, want)
		}
	}
	if f := functionalFlags(l, memctrl.Needs{}, 100, 4); f[0] || f[1] || f[2] || f[3] {
		t.Error("no needs should flag nothing")
	}
}

// TestDeterministicReports: identical seeds give identical outputs and
// counters.
func TestDeterministicReports(t *testing.T) {
	cfg := tinyConfig(200e3)
	plan := schedulePlan(t, cfg, 9*time.Microsecond)
	run := func() *Report {
		e := New(cfg)
		e.Seed = 11
		rep, err := e.Run(plan, randInput(chainNet(), 5), randWeights(t, chainNet(), 6))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Counts != b.Counts {
		t.Errorf("counts differ: %+v vs %+v", a.Counts, b.Counts)
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatal("outputs differ across identical runs")
		}
	}
}
