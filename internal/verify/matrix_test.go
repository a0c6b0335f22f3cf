package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/verify/gen"
)

// zooOptions are the options cmd/rana-verify sweeps with: the paper's
// hybrid pattern set at the tolerable interval under the optimized
// controller.
func zooOptions() sched.Options {
	return sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}
}

// group keeps the variants of m named by one of prefixes, whole
// "/"-separated segments at a time, and none of its plug-in checks: the
// slice of the matrix one axis's claims live in, so a regression there
// fails under that axis's test.
func group(m Matrix, prefixes ...string) Matrix {
	var g Matrix
	for _, v := range m.Variants {
		for _, p := range prefixes {
			if v.Name == p || strings.HasPrefix(v.Name, p+"/") {
				g.Variants = append(g.Variants, v)
				break
			}
		}
	}
	if len(g.Variants) == 0 {
		panic(fmt.Sprintf("no variant matches %q", prefixes))
	}
	return g
}

// runZoo requires m to hold on every benchmark network, one subtest
// each.
func runZoo(t *testing.T, m Matrix) {
	t.Helper()
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			r, err := m.Run(net, cfg, zooOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Error(r)
			}
			t.Logf("%s", r)
		})
	}
}

// runGenerated requires m to hold on n small random networks over
// random accelerators drawn from seed. Some layers are unschedulable on
// the drawn config, which exercises every relation's error arm next to
// its byte and work arms.
func runGenerated(t *testing.T, m Matrix, seed uint64, n int) {
	t.Helper()
	g := gen.New(seed)
	for i := 0; i < n; i++ {
		cfg := g.Config()
		net := models.Network{Name: fmt.Sprintf("gen-%d", i)}
		for j := 0; j < 1+i%3; j++ {
			net.Layers = append(net.Layers, g.TinyLayer())
		}
		r, err := m.Run(net, cfg, zooOptions())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !r.OK() {
			t.Errorf("case %d on %s:\n%s", i, cfg.Name, r)
		}
	}
}

// alexNetHead is AlexNet's first two layers: conv1 keeps a refreshed
// region and moves to a non-default mapping on the enlarged space, at
// under a third of the whole network's matrix cost.
func alexNetHead() models.Network {
	return models.Network{Name: "AlexNet-head", Layers: models.AlexNet().Layers[:2]}
}

// TestMatrixOnZoo: every variant of the default matrix, and the walker
// check, holds on the benchmark zoo.
func TestMatrixOnZoo(t *testing.T) {
	runZoo(t, DefaultMatrix(DefaultTolerances()))
}

// TestMatrixOnGeneratedNetworks: the whole default matrix on random
// networks.
func TestMatrixOnGeneratedNetworks(t *testing.T) {
	runGenerated(t, DefaultMatrix(DefaultTolerances()), 5, 25)
}

// strategyGroup is the search strategies' slice of the matrix: the
// sequential pruned plan equals the exhaustive one, the branch-and-bound
// accounts for and prices no more than the exhaustive candidate set, and
// the beam never beats the exact optimum.
func strategyGroup() Matrix {
	return group(DefaultMatrix(DefaultTolerances()), "strategy", "parallel/pruned/p1")
}

func TestCompareStrategiesOnZoo(t *testing.T) { runZoo(t, strategyGroup()) }

func TestCompareStrategiesOnGeneratedNetworks(t *testing.T) {
	runGenerated(t, strategyGroup(), 5, 25)
}

// TestCompareStrategiesFlagsABrokenBound: an unsound bound prunes the
// optimum, so the pruned search returns another tiling; the strategy
// slice must name that as a plan divergence against the exhaustive
// reference.
func TestCompareStrategiesFlagsABrokenBound(t *testing.T) {
	m := strategyGroup()
	pruned := Setting{Strategy: search.Pruned, Workers: 1, Incremental: true}
	broken := mutateSchedule(pruned, editPlan(func(p *sched.Plan) { p.Layers[0].Analysis.Tiling.Tm++ }))
	r, err := m.run(broken(direct), alexNetHead(), hw.TestAcceleratorEDRAM(), zooOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatal("a broken bound left the report OK")
	}
	want := "parallel/pruned/p1/plan-bytes: exhaustive/p1/stateless="
	if s := r.String(); !strings.Contains(s, want) {
		t.Errorf("rendering lacks %q:\n%s", want, s)
	}
}

// parallelGroup is the worker pool's and the memo's slice of the
// matrix: the sequential exhaustive bytes at every worker level, memo on
// and off, exhaustive and pruned.
func parallelGroup() Matrix { return group(DefaultMatrix(DefaultTolerances()), "parallel") }

func TestCompareParallelismOnZoo(t *testing.T) { runZoo(t, parallelGroup()) }

func TestCompareParallelismOnGeneratedNetworks(t *testing.T) {
	runGenerated(t, parallelGroup(), 7, 15)
}

// TestParallelismReportRendering: a clean run renders its variant and
// compile counts; a pooled setting whose plan drifts renders as one
// divergence naming the variant, its reference and both plans.
func TestParallelismReportRendering(t *testing.T) {
	m := parallelGroup()
	net, cfg := alexNetHead(), hw.TestAcceleratorEDRAM()
	r, err := m.Run(net, cfg, zooOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every parallel variant is its own setting, and all share the one
	// reference.
	want := fmt.Sprintf("AlexNet-head matrix: ok (%d variants over %d compiled settings)",
		len(m.Variants), len(m.Variants)+1)
	if s := r.String(); s != want {
		t.Fatalf("clean rendering %q, want %q", s, want)
	}
	pooled := Setting{Strategy: search.Pruned, Workers: 2, Memo: true, Incremental: true}
	drift := mutateSchedule(pooled, editPlan(func(p *sched.Plan) { p.Layers[1].Analysis.Tiling.Tn++ }))
	r, err = m.run(drift(direct), net, cfg, zooOptions())
	if err != nil {
		t.Fatal(err)
	}
	want = "AlexNet-head matrix: 1 divergences\n  parallel/pruned/p2/memo/plan-bytes: exhaustive/p1/stateless="
	if s := r.String(); !strings.HasPrefix(s, want) || !strings.Contains(s, ", pruned/p2/memo=") {
		t.Errorf("rendering %q, want prefix %q", s, want)
	}
}

// incrementalGroup is incremental pricing's slice of the matrix: the
// stateless twin's bytes at every bound-consuming strategy, sequentially
// and pooled, and its per-layer work at Workers 1.
func incrementalGroup() Matrix { return group(DefaultMatrix(DefaultTolerances()), "incremental") }

func TestCompareIncrementalOnZoo(t *testing.T) { runZoo(t, incrementalGroup()) }

func TestCompareIncrementalOnGeneratedNetworks(t *testing.T) {
	runGenerated(t, incrementalGroup(), 11, 10)
}

// TestIncrementalReportRendering: a work divergence renders per layer,
// with both sides' full search.Stats.
func TestIncrementalReportRendering(t *testing.T) {
	inc := Setting{Strategy: search.Pruned, Workers: 1, Incremental: true}
	skew := mutateStats(inc, func(st *search.Stats) { st.Bounded++ })
	net := alexNetHead()
	r, err := incrementalGroup().run(skew(direct), net, hw.TestAcceleratorEDRAM(), zooOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Divergences) != len(net.Layers) {
		t.Fatalf("want one divergence per layer, got:\n%s", r)
	}
	s := r.String()
	for _, l := range net.Layers {
		want := "  incremental/pruned/p1/stats/" + l.Name + ": pruned/p1/stateless={Tilings:"
		if !strings.Contains(s, want) || !strings.Contains(s, ", pruned/p1={Tilings:") {
			t.Errorf("rendering lacks %q:\n%s", want, s)
		}
	}
}

// TestMatrixIncrementalWithAxes re-runs the incremental-pricing variants
// on the enlarged space, where the pricing context's per-cell branches
// (blocked-ID DDR, per-map tables) actually exercise, at every worker
// level.
func envelopeGroup() Matrix { return group(DefaultMatrix(DefaultTolerances()), "envelope") }

func TestCompareEnvelopeOnZoo(t *testing.T) { runZoo(t, envelopeGroup()) }

func TestCompareEnvelopeOnGeneratedNetworks(t *testing.T) {
	runGenerated(t, envelopeGroup(), 29, 12)
}

// TestEdgeIntervalIsAPlanChange: the envelope variants' premise. On
// every zoo network, on both spaces, edgeInterval finds a plan change
// above a quarter of the frame's interval rather than falling back to
// the frame's own.
func TestEdgeIntervalIsAPlanChange(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		for _, axes := range []bool{false, true} {
			opts := Setting{Strategy: search.Pruned, Workers: 1, Memo: true, Incremental: true, Axes: axes}.options(zooOptions(), cfg)
			if got := edgeInterval(net, cfg, opts); got == opts.RefreshInterval {
				t.Errorf("%s (axes %v): no plan change found between %v and %v", net.Name, axes, opts.RefreshInterval/4, 64*opts.RefreshInterval)
			} else {
				t.Logf("%s (axes %v): plans change at %v", net.Name, axes, got)
			}
		}
	}
}

func TestMatrixIncrementalWithAxes(t *testing.T) {
	m := Matrix{Variants: incrementalVariants(true, workerLevels())}
	r, err := m.Run(models.AlexNet(), hw.TestAcceleratorEDRAM(), zooOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Error(r)
	}
}

// TestReportRendering: a report is OK exactly when it holds no
// divergence, and renders its notes or its divergences.
func TestReportRendering(t *testing.T) {
	r := &Report{Subject: "x"}
	r.note("3 variants")
	if !r.OK() || r.String() != "x: ok (3 variants)" {
		t.Fatalf("clean report: OK=%v %q", r.OK(), r)
	}
	r.diverge("parallel/pruned/p2/plan-bytes", "exhaustive/p1/stateless", "pruned/p2", "a", "b")
	if r.OK() {
		t.Fatal("report with a divergence claims OK")
	}
	want := "x: 1 divergences\n  parallel/pruned/p2/plan-bytes: exhaustive/p1/stateless=a, pruned/p2=b"
	if s := r.String(); s != want {
		t.Fatalf("rendering %q, want %q", s, want)
	}
}

// mutateSchedule wraps the seam's schedule for one setting.
func mutateSchedule(target Setting, f func(p *sched.Plan, err error) (*sched.Plan, error)) func(compiler) compiler {
	return func(c compiler) compiler {
		inner := c.schedule
		c.schedule = func(s Setting, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
			p, err := inner(s, net, cfg, opts)
			if s != target {
				return p, err
			}
			return f(p, err)
		}
		return c
	}
}

// mutateStats wraps the seam's per-layer exploration for one setting.
func mutateStats(target Setting, f func(st *search.Stats)) func(compiler) compiler {
	return func(c compiler) compiler {
		inner := c.explore
		c.explore = func(s Setting, l models.ConvLayer, cfg hw.Config, opts sched.Options) (search.Stats, error) {
			st, err := inner(s, l, cfg, opts)
			if s == target && err == nil {
				f(&st)
			}
			return st, err
		}
		return c
	}
}

// editPlan mutates a successful plan in place.
func editPlan(f func(p *sched.Plan)) func(*sched.Plan, error) (*sched.Plan, error) {
	return func(p *sched.Plan, err error) (*sched.Plan, error) {
		if err == nil {
			f(p)
		}
		return p, err
	}
}

// failWith replaces a setting's outcome with an error.
func failWith(msg string) func(*sched.Plan, error) (*sched.Plan, error) {
	return func(*sched.Plan, error) (*sched.Plan, error) { return nil, errors.New(msg) }
}

// TestMatrixMutants is the coverage inventory: one mutant through the
// compile seam per check the four retired oracles enforced, each of
// which must turn the matrix red under that check's name. The mutants
// touch only the seam — sched and search are the production code.
func TestMatrixMutants(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	// conv1's refreshed region is the deadline mutant's premise, its
	// non-default mapping on the enlarged space the spelled-default
	// mutant's.
	net := alexNetHead()
	opts := zooOptions()
	m := DefaultMatrix(DefaultTolerances())
	find := func(name string, rel Relation) Variant {
		for _, v := range m.Variants {
			if v.Name == name && v.Relation == rel {
				return v
			}
		}
		t.Fatalf("matrix has no %s variant with relation %d", name, rel)
		return Variant{}
	}
	top := workerLevels()[len(workerLevels())-1]
	p := func(format string) string { return fmt.Sprintf(format, top) }

	parallel := find(p("parallel/pruned/p%d/memo"), SameBytes)
	incBytes := find("incremental/beam/p1", SameBytes)
	incWork := find("incremental/pruned/p1", SameWork)
	axesBytes := find(p("axes/pruned/p%d/memo/axes"), SameBytes)
	pruned := find("strategy/pruned/p1", PrunedWork)
	beam := find(p("strategy/beam/p%d/memo"), NeverCheaper)
	axesBeam := find(p("axes/beam/p%d/memo/axes"), NeverCheaper)
	neverWorse := find("axes/exhaustive/p1/stateless/axes", NeverWorse)
	spelled := find(p("spelling/pruned/p%d/memo/spelled"), SameBytes)
	swept := find(p("parametric/pruned/p%d/memo/parametric"), SameBytes)
	sweptAxes := find(p("parametric/pruned/p%d/memo/axes/parametric"), SameBytes)
	edge := find(p("envelope/pruned/p%d/memo/parametric/edge"), SameBytes)
	axesRef := neverWorse.Setting

	// Every mutant must be the only reason the matrix goes red.
	clean, err := m.run(direct, net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.OK() {
		t.Fatalf("unmutated matrix is red:\n%s", clean)
	}

	retile := editPlan(func(p *sched.Plan) { p.Layers[0].Analysis.Tiling.Tm++ })

	// The deadline mutant needs a region the walker shows outliving the
	// guarded interval: one the unmutated plan refreshes.
	refPlan, err := sched.Schedule(net, cfg, axesRef.options(opts, cfg))
	if err != nil {
		t.Fatal(err)
	}
	needy := ""
	for _, lp := range refPlan.Layers {
		if lp.Needs.Any() {
			needy = lp.Analysis.Layer.Name
			break
		}
	}
	if needy == "" {
		t.Fatalf("premise: no layer of the %s plan needs refresh", axesRef.Name())
	}

	cases := []struct {
		old    string
		mutate func(compiler) compiler
		want   string
	}{
		{"strategy/plan-bytes, parallel/plan-bytes/*", mutateSchedule(parallel.Setting, retile), parallel.Name + "/plan-bytes"},
		{"incremental/plan-bytes/*", mutateSchedule(incBytes.Setting, retile), incBytes.Name + "/plan-bytes"},
		{"traversal/plan-bytes", mutateSchedule(axesBytes.Setting, retile), axesBytes.Name + "/plan-bytes"},
		{"*/error", mutateSchedule(parallel.Setting, failWith("injected")), parallel.Name + "/error"},
		{"*/error-text", func(c compiler) compiler {
			c = mutateSchedule(parallel.Ref, failWith("reference failure"))(c)
			return mutateSchedule(parallel.Setting, failWith("variant failure"))(c)
		}, parallel.Name + "/error-text"},
		{"strategy/candidates", mutateStats(pruned.Setting, func(st *search.Stats) { st.Candidates++ }), pruned.Name + "/candidates/"},
		{"strategy/accounting", mutateStats(pruned.Setting, func(st *search.Stats) { st.Pruned-- }), pruned.Name + "/accounting/"},
		{"strategy/work", mutateStats(pruned.Setting, func(st *search.Stats) { st.Evaluated = st.Candidates + 1 }), pruned.Name + "/work/"},
		{"incremental/work", mutateStats(incWork.Setting, func(st *search.Stats) { st.Bounded++ }), incWork.Name + "/stats/"},
		{"strategy/beam-energy", mutateSchedule(beam.Setting, editPlan(func(p *sched.Plan) { p.Energy = energy.Breakdown{} })), beam.Name + "/beam-energy"},
		{"traversal/beam-energy", mutateSchedule(axesBeam.Setting, editPlan(func(p *sched.Plan) { p.Energy = energy.Breakdown{} })), axesBeam.Name + "/beam-energy"},
		{"*/beam-error", mutateSchedule(beam.Setting, failWith("beam failure")), beam.Name + "/beam-error"},
		{"traversal/default-bytes, backend/default-bytes", func(c compiler) compiler {
			inner := c.schedule
			c.schedule = func(s Setting, net models.Network, cfg hw.Config, o sched.Options) (*sched.Plan, error) {
				if s == spelled.Setting {
					o.Traversal, o.Mapping = "rtc", "all"
				}
				return inner(s, net, cfg, o)
			}
			return c
		}, spelled.Name + "/plan-bytes"},
		{"traversal/never-worse", mutateSchedule(axesRef, editPlan(func(p *sched.Plan) { p.Energy.Add(p.Energy) })), neverWorse.Name + "/never-worse"},
		{"traversal/lifetime", mutateSchedule(axesRef, editPlan(func(p *sched.Plan) {
			for i := range p.Layers {
				p.Layers[i].Analysis.Lifetimes.Weight = 0
			}
		})), "walker/lifetime/"},
		{"traversal/deadline", mutateSchedule(axesRef, editPlan(func(p *sched.Plan) {
			for i := range p.Layers {
				p.Layers[i].Needs = memctrl.Needs{}
			}
		})), "walker/deadline/" + needy + "/"},
		{"traversal/point", mutateSchedule(axesRef, editPlan(func(p *sched.Plan) { p.Layers[0].Point = "no-such-point" })), "walker/point/"},
		// A memo frontier answering with the wrong record: a query that
		// stops at E0 >= best, or dominance that ignores canonical order.
		// On real networks the frontier's (E0, canonical) order makes
		// both rules matter only when float rounding ties two candidates,
		// so sched's TestFrontierPickPricesEqualE0Ties and
		// TestFrontierDominanceKeepsCanonicalOrder kill the rule mutants
		// on crafted records; here their symptom, another candidate's
		// plan for a swept layer, must turn the parametric variants red.
		{"parametric/query-stop", mutateSchedule(swept.Setting, retile), swept.Name + "/plan-bytes"},
		{"parametric/dominance-order", mutateSchedule(sweptAxes.Setting, editPlan(func(p *sched.Plan) {
			p.Layers[0].Traversal = "blocked2"
		})), sweptAxes.Name + "/plan-bytes"},
		// An envelope breakpoint one nanosecond late: at the network's
		// first plan change the memo still serves the plan before it.
		// sched's TestEnvelopeBreakpointMutantsFail moves real
		// breakpoints; here the symptom must turn the envelope variant red.
		{"envelope/breakpoint", func(c compiler) compiler {
			inner := c.schedule
			c.schedule = func(s Setting, net models.Network, cfg hw.Config, o sched.Options) (*sched.Plan, error) {
				if s == edge.Setting {
					s.Edge = -1
				}
				return inner(s, net, cfg, o)
			}
			return c
		}, edge.Name + "/plan-bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.old, func(t *testing.T) {
			r, err := m.run(tc.mutate(direct), net, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range r.Divergences {
				if strings.HasPrefix(d.Check, tc.want) {
					return
				}
			}
			t.Errorf("mutant not caught under %q:\n%s", tc.want, r)
		})
	}
}
