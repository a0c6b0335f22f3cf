package verify

import (
	"slices"
	"strings"
	"testing"
	"time"

	"rana/internal/energy"
	"rana/internal/exec"
	"rana/internal/fault"
	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/verify/gen"
)

// ranaOptions returns the full RANA design point's scheduling options at
// the tolerable interval.
func ranaOptions() sched.Options {
	return sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}
}

// TestOracleZooAgreement: the three models agree on every AlexNet layer
// under both RANA patterns at the natural tiling — the smallest slice of
// the full sweep cmd/rana-verify runs.
func TestOracleZooAgreement(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	tol := DefaultTolerances()
	opts := ranaOptions()
	for _, l := range models.AlexNet().Layers {
		for _, k := range []pattern.Kind{pattern.OD, pattern.WD} {
			ti := sched.NaturalTiling(l, cfg)
			r := CompareLayer(l, k, ti, cfg, tol)
			if !r.OK() {
				t.Errorf("%s", r)
			}
			a := pattern.MustAnalyze(l, k, ti, cfg)
			rr, err := CompareRefresh(a, cfg, opts, tol)
			if err != nil {
				t.Fatal(err)
			}
			if !rr.OK() {
				t.Errorf("refresh: %s", rr)
			}
		}
	}
}

// TestOracleRandomAgreement: randomized cases from the shared generator
// also agree, across both mappings and all patterns.
func TestOracleRandomAgreement(t *testing.T) {
	g := gen.New(7)
	tol := DefaultTolerances()
	for i := 0; i < 150; i++ {
		c := g.Case()
		r := CompareLayer(c.Layer, c.Pattern, c.Tiling, c.Config, tol)
		if !r.OK() {
			t.Fatalf("case %d: %s", i, r)
		}
		if c.Options.Controller != nil {
			a := pattern.MustAnalyze(c.Layer, c.Pattern, c.Tiling, c.Config)
			rr, err := CompareRefresh(a, c.Config, c.Options, tol)
			if err != nil {
				t.Fatal(err)
			}
			if !rr.OK() {
				t.Fatalf("case %d refresh: %s", i, rr)
			}
		}
	}
}

// TestOracleFunctional: the word-accurate simulator agrees with the tick
// and analytical models on small layers through an eDRAM buffer, with
// refresh live at the conventional interval.
func TestOracleFunctional(t *testing.T) {
	g := gen.New(11)
	cfg := gen.New(12).Config()
	tol := DefaultTolerances()
	for i := 0; i < 5; i++ {
		l := g.TinyLayer()
		r, err := CompareFunctional("edram", l, cfg, 0, 100+uint64(i), tol)
		if err != nil {
			t.Fatalf("layer %+v on %s: %v", l, cfg.Name, err)
		}
		if !r.OK() {
			t.Errorf("layer %d: %s", i, r)
		}
	}
}

// TestOracleFunctionalMutants breaks one input of a functional run per
// check and requires exactly that check to fire: the overlay letting
// one masked word through, the issuer leaving one used bank unflagged,
// and the simulator's clock one cycle slow, more than the 1 ns slack.
// A check no mutant fires could never fail.
func TestOracleFunctionalMutants(t *testing.T) {
	// At 100 kHz the spot layer's 7 cycles span 70 µs, so the 45 µs
	// refresh fires during the run and the unflagged bank shows.
	cfg := hw.TestAcceleratorEDRAM()
	cfg.FrequencyHz = 100e3
	l := models.ConvLayer{Name: "spot", N: 2, H: 8, L: 8, M: 2, K: 3, S: 1, P: 1}
	cycles := float64(inBoundsMACs(l) / uint64(cfg.PEs()))
	for _, c := range []struct {
		name   string
		mutate func(*functionalRig)
		want   []string
	}{
		{"intact", nil, nil},
		{"flip-let-through", func(r *functionalRig) {
			m := *r.mask
			word := m.Flips[0].Word
			m.Flips = slices.DeleteFunc(slices.Clone(m.Flips), func(f fault.Flip) bool { return f.Word == word })
			r.mask = &m
		}, []string{"functional/word-errors", "functional/injections"}},
		{"unflagged-bank", func(r *functionalRig) { r.flags[0] = false },
			[]string{"functional/refresh-words"}},
		{"skewed-clock", func(r *functionalRig) { r.clockHz *= cycles / (cycles + 1) },
			[]string{"functional/exec-time"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := compareFunctional("edram", l, cfg, 0.1, 5, DefaultTolerances(), c.mutate)
			if err != nil {
				t.Fatal(err)
			}
			var fired []string
			for _, d := range r.Divergences {
				fired = append(fired, d.Check)
			}
			if !slices.Equal(fired, c.want) {
				t.Errorf("fired %v, want %v\n%s", fired, c.want, r)
			}
		})
	}
}

// TestOracleFunctionalRefreshPulses: on every point of every refreshing
// buffer backend, with and without a fault mask, the functional oracle
// holds while refresh pulses land during the run. At the test
// accelerator's 200 MHz the spot layer runs for nanoseconds and no
// pulse fires, so each case clocks it to span two of the point's
// scaled 45 µs refresh periods. An ok report's refresh-words check
// holds the words the simulator issued to the pulses its divider
// predicts over the run, so a predicted pulse is an issued one.
func TestOracleFunctionalRefreshPulses(t *testing.T) {
	l := models.ConvLayer{Name: "spot", N: 2, H: 8, L: 8, M: 2, K: 3, S: 1, P: 1}
	cfg := hw.TestAcceleratorEDRAM()
	cycles := float64(inBoundsMACs(l) / uint64(cfg.PEs()))
	cases := 0
	for _, bk := range mem.Buffers() {
		if !bk.Refreshes() {
			continue
		}
		for _, pt := range bk.Points() {
			interval := time.Duration(float64(retention.TypicalRetentionTime) * pt.RetentionScale)
			cfg.FrequencyHz = cycles / (2 * interval.Seconds())
			div, err := memctrl.NewDivider(cfg.FrequencyHz, interval)
			if err != nil {
				t.Fatal(err)
			}
			run := time.Duration(cycles / cfg.FrequencyHz * float64(time.Second))
			spec := bk.Name() + "@" + pt.Name
			if pulses := memctrl.Pulses(run, div.Period()); pulses < 1 {
				t.Errorf("%s: a %v run at a %v period issues no pulse", spec, run, div.Period())
			}
			for _, rate := range []float64{0, 0.1} {
				r, err := CompareFunctional(spec, l, cfg, rate, 5, DefaultTolerances())
				if err != nil {
					t.Fatalf("%s at fault rate %g: %v", spec, rate, err)
				}
				if !r.OK() {
					t.Errorf("%s at fault rate %g: %s", spec, rate, r)
				}
				cases++
			}
		}
	}
	if cases == 0 {
		t.Fatal("no refreshing buffer backend is registered")
	}
}

// TestOracleCatchesBrokenRefreshFlags is the seeded regression the
// acceptance criteria demand: an intentionally broken refresh-flag
// computation (refresh needs inverted, as a drifted NeedsFor would
// produce) must be caught both by the plan invariants and by the
// refresh-word re-derivation.
func TestOracleCatchesBrokenRefreshFlags(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := ranaOptions()
	plan, err := sched.Schedule(models.AlexNet(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckPlan(plan, DefaultTolerances()); len(vs) != 0 {
		t.Fatalf("clean plan reported violations: %v", vs)
	}

	// Find a layer whose needs are non-trivial and break them the way a
	// lifetime-comparison bug would: flip every flag.
	broke := false
	for i := range plan.Layers {
		lp := &plan.Layers[i]
		lp.Needs = memctrl.Needs{
			Inputs:  !lp.Needs.Inputs,
			Outputs: !lp.Needs.Outputs,
			Weights: !lp.Needs.Weights,
		}
		broke = true
		break
	}
	if !broke {
		t.Fatal("no layer to break")
	}
	vs := CheckPlan(plan, DefaultTolerances())
	if len(vs) == 0 {
		t.Fatal("oracle missed the broken refresh flags")
	}
	found := false
	for _, v := range vs {
		if strings.HasPrefix(v.Invariant, "refresh-flag/") {
			found = true
		}
	}
	if !found {
		t.Errorf("no refresh-flag violation in %v", vs)
	}
}

// TestCheckPlanCatchesCorruptedTotals: tampering with the aggregate
// counters is detected.
func TestCheckPlanCatchesCorruptedTotals(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	plan, err := sched.Schedule(models.AlexNet(), cfg, ranaOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan.Totals.MACs++
	vs := CheckPlan(plan, DefaultTolerances())
	found := false
	for _, v := range vs {
		if v.Invariant == "totals-conserved" {
			found = true
		}
	}
	if !found {
		t.Errorf("corrupted totals not caught: %v", vs)
	}
}

// TestCheckPlanPassesScheduledAlexNet: every plan invariant holds on
// the AlexNet plan the scheduler returns.
func TestCheckPlanPassesScheduledAlexNet(t *testing.T) {
	plan, err := sched.Schedule(models.AlexNet(), hw.TestAcceleratorEDRAM(), ranaOptions())
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckPlan(plan, DefaultTolerances()); len(vs) != 0 {
		t.Fatalf("scheduled AlexNet plan violates %d invariants: %v", len(vs), vs)
	}
}

// chainNet is a tiny two-layer network whose shapes chain, for engine
// runs.
func chainNet() models.Network {
	return models.Network{Name: "chain", Layers: []models.ConvLayer{
		{Name: "l0", N: 2, H: 6, L: 6, M: 3, K: 3, S: 1, P: 1},
		{Name: "l1", N: 3, H: 6, L: 6, M: 2, K: 3, S: 1, P: 1},
	}}
}

// smallConfig is an eDRAM accelerator small enough for word-accurate
// execution.
func smallConfig() hw.Config {
	return hw.Config{
		Name: "small", ArrayM: 4, ArrayN: 4, FrequencyHz: 200e6,
		LocalInput: 8192, LocalOutput: 2048, LocalWeight: 8192,
		BufferWords: 4 * 1024, BufferTech: energy.EDRAM, BankWords: 1024,
	}
}

// TestRunObserverOnEngine: the runtime invariants hold across a real
// chained engine run, and CheckReport passes the resulting report.
func TestRunObserverOnEngine(t *testing.T) {
	cfg := smallConfig()
	net := chainNet()
	opts := ranaOptions()
	plan, err := sched.Schedule(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(cfg)
	e.Observer = NewRunObserver()
	g := gen.New(21)
	input := g.Words(int(net.Layers[0].InputWords()))
	weights := [][]fixed.Word{
		g.Words(int(net.Layers[0].WeightWords())),
		g.Words(int(net.Layers[1].WeightWords())),
	}
	report, err := e.Run(plan, input, weights)
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckReport(report, cfg.BufferTech, DefaultTolerances()); len(vs) != 0 {
		t.Errorf("report violations: %v", vs)
	}
}

// TestRunObserverRejectsBrokenClock: a non-monotonic clock sequence is
// rejected.
func TestRunObserverRejectsBrokenClock(t *testing.T) {
	o := NewRunObserver()
	l := models.ConvLayer{Name: "x", N: 1, H: 4, L: 4, M: 1, K: 1, S: 1}
	if err := o.LayerExecuted(0, l, 0, time.Millisecond, 5); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	if err := o.LayerExecuted(1, l, time.Millisecond, time.Microsecond, 5); err == nil {
		t.Error("backwards clock accepted")
	}
	o = NewRunObserver()
	if err := o.LayerExecuted(0, l, 0, time.Millisecond, 5); err != nil {
		t.Fatal(err)
	}
	if err := o.LayerExecuted(1, l, 2*time.Millisecond, 3*time.Millisecond, 5); err == nil {
		t.Error("clock gap accepted")
	}
	o = NewRunObserver()
	if err := o.LayerExecuted(0, l, 0, time.Millisecond, 5); err != nil {
		t.Fatal(err)
	}
	if err := o.LayerExecuted(1, l, time.Millisecond, 2*time.Millisecond, 3); err == nil {
		t.Error("decreasing refresh counter accepted")
	}
}

// TestMinimizeShrinks: the minimizer reduces a large failing case to the
// smallest one still failing the predicate.
func TestMinimizeShrinks(t *testing.T) {
	g := gen.New(5)
	c := g.Case()
	c.Layer = models.ConvLayer{Name: "big", N: 64, H: 32, L: 32, M: 64, K: 5, S: 2, P: 2, Groups: 2}
	c.Tiling = pattern.Tiling{Tm: 16, Tn: 16, Tr: 2, Tc: 16}
	// Predicate: fails whenever the layer has more than 4 input channels.
	fails := func(c gen.Case) bool { return c.Layer.N > 4 }
	m := Minimize(c, fails)
	if !fails(m) {
		t.Fatal("minimized case no longer fails")
	}
	if m.Layer.N > 8 {
		t.Errorf("N=%d not shrunk", m.Layer.N)
	}
	if m.Layer.Validate() != nil || m.Tiling.Validate() != nil {
		t.Errorf("minimized case invalid: %+v %+v", m.Layer, m.Tiling)
	}
	// A passing case is returned unchanged.
	ok := g.Case()
	ok.Layer.N = 1
	if got := Minimize(ok, fails); got.Layer != ok.Layer {
		t.Error("passing case mutated")
	}
}

// TestDivergenceRendering: reports render the offending check for humans.
func TestDivergenceRendering(t *testing.T) {
	r := &Report{Subject: "l"}
	r.diverge("cycles", "analytical", "walker", 10, 11)
	if r.OK() {
		t.Fatal("diverged report claims OK")
	}
	s := r.String()
	for _, want := range []string{"cycles", "analytical", "walker", "10", "11"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q: %s", want, s)
		}
	}
}
