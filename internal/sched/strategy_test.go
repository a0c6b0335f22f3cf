package sched

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

func withStrategy(o Options, s search.Strategy) Options {
	o.Search = s
	return o
}

// TestPrunedMatchesExhaustive is the strategy-differential oracle over
// the benchmark zoo: branch-and-bound must return byte-identical plans
// to the exhaustive reference (same argmin, same tie-breaks — the
// admissibility guarantee), while exactly pricing strictly fewer
// candidates (the point of pruning).
func TestPrunedMatchesExhaustive(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		ex, err := Schedule(net, cfg, withStrategy(ranaOpts(), search.Exhaustive))
		if err != nil {
			t.Fatalf("%s exhaustive: %v", net.Name, err)
		}
		pr, err := Schedule(net, cfg, withStrategy(ranaOpts(), search.Pruned))
		if err != nil {
			t.Fatalf("%s pruned: %v", net.Name, err)
		}
		ej, _ := json.Marshal(Encode(ex))
		pj, _ := json.Marshal(Encode(pr))
		if string(ej) != string(pj) {
			t.Errorf("%s: pruned plan diverged from exhaustive\nexhaustive: %s\npruned:     %s", net.Name, ej, pj)
		}

		var exEvals, prEvals int
		for _, l := range net.Layers {
			_, es, err := ExploreLayer(l, cfg, withStrategy(ranaOpts(), search.Exhaustive))
			if err != nil {
				t.Fatal(err)
			}
			_, ps, err := ExploreLayer(l, cfg, withStrategy(ranaOpts(), search.Pruned))
			if err != nil {
				t.Fatal(err)
			}
			if ps.Candidates != es.Candidates {
				t.Errorf("%s/%s: strategies saw different candidate spaces: %d vs %d",
					net.Name, l.Name, ps.Candidates, es.Candidates)
			}
			if ps.Evaluated+ps.Pruned != es.Evaluated {
				t.Errorf("%s/%s: pruned evaluations %d + skips %d != exhaustive evaluations %d",
					net.Name, l.Name, ps.Evaluated, ps.Pruned, es.Evaluated)
			}
			exEvals += es.Evaluated
			prEvals += ps.Evaluated
		}
		if prEvals >= exEvals {
			t.Errorf("%s: pruning saved nothing (%d vs %d exact evaluations)", net.Name, prEvals, exEvals)
		}
		t.Logf("%s: exhaustive priced %d candidates, pruned %d (%.1f%% skipped)",
			net.Name, exEvals, prEvals, 100*float64(exEvals-prEvals)/float64(exEvals))
	}
}

// TestPrunedPricesNearTheBoundMinimum pins the pruned scan's work, not
// its time. No incumbent is ever below a layer's optimal energy, so a
// candidate whose admissible bound is at or below it is priced in any
// scan order: their count is the fewest exact evaluations any order
// makes. Walking the largest tilings first sets an incumbent near the
// optimum early, so on test-edram, summed over every distinct zoo shape
// on both spaces at 734 µs and at 45 µs, Pruned prices at most 1.2×
// that count. Short mode and the race detector check every seventh
// shape.
func TestPrunedPricesNearTheBoundMinimum(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	for name, base := range envelopeOptions() {
		for _, us := range []time.Duration{734, 45} {
			opts := base
			opts.RefreshInterval = us * time.Microsecond
			t.Run(fmt.Sprintf("%s/%dus", name, us), func(t *testing.T) {
				t.Parallel()
				env, err := envFor(opts)
				if err != nil {
					t.Fatal(err)
				}
				s := newExploreState()
				evaluated, floor := 0, 0
				for i, l := range distinctShapes(cfg, opts) {
					if (testing.Short() || raceEnabled) && i%7 != 0 {
						continue
					}
					// explore leaves the layer's bound, points and
					// admission filter in s.
					lp, st, err := s.explore(l, cfg, opts, env)
					if err != nil {
						t.Fatal(err)
					}
					optimum := lp.Energy.Total()
					bounds := make([]float64, len(opts.Patterns)*len(s.points)*len(env.travs)*len(env.maps))
					for _, tl := range candidateTilings(l, cfg, opts) {
						if !s.admit(tl) {
							continue
						}
						s.b.fill(tl, bounds)
						for _, lb := range bounds {
							if lb <= optimum {
								floor++
							}
						}
					}
					evaluated += st.Evaluated
				}
				if float64(evaluated) > 1.2*float64(floor) {
					t.Errorf("pruned priced %d candidates, %.2f× the %d whose bound is at or below their layer's optimum",
						evaluated, float64(evaluated)/float64(floor), floor)
				}
				t.Logf("pruned priced %d, bound floor %d (%.2f×)", evaluated, floor, float64(evaluated)/float64(floor))
			})
		}
	}
}

// TestTilingSpaceEnumeratedOncePerLayer pins the hoist fix on every zoo
// layer: the tiling space is pattern-independent, so the number of
// tilings enumerated is the size of candidateTilings' space whatever
// the number of pattern kinds explored, Admit keeps exactly the tilings
// that fit the core, and each kind sees each admitted tiling once. A
// pinned tiling is a space of one, and the natural-tiling baseline
// enumerates its reduction order once, too.
func TestTilingSpaceEnumeratedOncePerLayer(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	one := ranaOpts()
	one.Patterns = []pattern.Kind{pattern.OD}
	nat := ranaOpts()
	nat.NaturalTiling = true
	check := func(name string, l models.ConvLayer, opts Options) LayerPlan {
		t.Helper()
		lp, s, err := ExploreLayer(l, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cands := candidateTilings(l, cfg, opts)
		fit := 0
		for _, ti := range cands {
			if ti.FitsCore(effectiveLayer(l), cfg) {
				fit++
			}
		}
		if s.Tilings != len(cands) || s.Admitted != fit {
			t.Errorf("%s: %d tilings enumerated, %d admitted, want %d and the %d that fit the core — the space is enumerated once, not per pattern",
				name, s.Tilings, s.Admitted, len(cands), fit)
		}
		if !opts.NaturalTiling && s.Candidates != len(opts.Patterns)*s.Admitted {
			t.Errorf("%s: candidates %d != kinds × admitted tilings %d", name, s.Candidates, len(opts.Patterns)*s.Admitted)
		}
		return lp
	}
	for _, net := range models.Benchmarks() {
		for _, l := range net.Layers {
			name := net.Name + "/" + l.Name
			check(name+"/1-kind", l, one)
			lp := check(name+"/2-kinds", l, ranaOpts())
			check(name+"/natural", l, nat)
			pinned := ranaOpts()
			pinned.FixedTiling = &lp.Analysis.Tiling
			if got := check(name+"/pinned", l, pinned); got.Analysis.Tiling != lp.Analysis.Tiling {
				t.Errorf("%s: pinned %v, planned %v", name, lp.Analysis.Tiling, got.Analysis.Tiling)
			}
			if n := len(candidateTilings(l, cfg, pinned)); n != 1 {
				t.Errorf("%s: a pinned tiling's space holds %d tilings, want 1", name, n)
			}
		}
	}
}

// TestBeamPlansAreFeasibleAndNoBetterThanExact: the beam may lose
// schedule quality but never feasibility or determinism — its plan must
// be valid for every zoo network, cost at least the exact argmin, and
// reproduce run to run.
func TestBeamPlansAreFeasibleAndNoBetterThanExact(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	beam := withStrategy(ranaOpts(), search.Beam)
	beam.BeamWidth = 16
	for _, net := range models.Benchmarks() {
		exact, err := Schedule(net, cfg, ranaOpts())
		if err != nil {
			t.Fatal(err)
		}
		a, err := Schedule(net, cfg, beam)
		if err != nil {
			t.Fatalf("%s beam: %v", net.Name, err)
		}
		b, err := Schedule(net, cfg, beam)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(Encode(a))
		bj, _ := json.Marshal(Encode(b))
		if string(aj) != string(bj) {
			t.Errorf("%s: beam schedule is not deterministic", net.Name)
		}
		for _, lp := range a.Layers {
			if !lp.Analysis.Feasible {
				t.Errorf("%s: beam chose an infeasible layer plan", net.Name)
			}
		}
		if a.Energy.Total() < exact.Energy.Total()-1e-6 {
			t.Errorf("%s: beam energy %.3e beats the exact argmin %.3e — impossible with a correct exact search",
				net.Name, a.Energy.Total(), exact.Energy.Total())
		}
	}
}

// TestBeamEvaluatesAtMostWidthPerLayer: the whole point of the beam is
// a hard per-layer exact-pricing budget.
func TestBeamEvaluatesAtMostWidthPerLayer(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := withStrategy(ranaOpts(), search.Beam)
	opts.BeamWidth = 8
	for _, l := range models.VGG().Layers {
		_, s, err := ExploreLayer(l, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The feasibility-aware bound keeps the kept set winnable, so the
		// rescan fallback (all kept candidates infeasible) never fires
		// when any feasible candidate exists — the budget must hold.
		if s.Evaluated > opts.BeamWidth {
			t.Errorf("%s: beam priced %d candidates with width %d", l.Name, s.Evaluated, opts.BeamWidth)
		}
	}
}

// TestStrategyOptionValidation: unknown strategies and negative beam
// widths are rejected at the options boundary.
func TestStrategyOptionValidation(t *testing.T) {
	o := ranaOpts()
	o.Search = "simulated-annealing"
	if err := o.Validate(); err == nil {
		t.Error("unknown strategy validated")
	}
	o = ranaOpts()
	o.BeamWidth = -1
	if err := o.Validate(); err == nil {
		t.Error("negative beam width validated")
	}
	for _, s := range search.Strategies() {
		if err := withStrategy(ranaOpts(), s).Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

// TestFixedTilingUnderEveryStrategy: the fixed-tiling baseline space is
// a single point; every strategy must land on it.
func TestFixedTilingUnderEveryStrategy(t *testing.T) {
	cfg := hw.DaDianNao()
	ti := pattern.Tiling{Tm: 64, Tn: 64, Tr: 1, Tc: 1}
	for _, s := range search.Strategies() {
		opts := withStrategy(ranaOpts(), s)
		opts.Patterns = []pattern.Kind{pattern.WD}
		opts.FixedTiling = &ti
		plan, err := Schedule(models.AlexNet(), cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, lp := range plan.Layers {
			if lp.Analysis.Tiling != ti {
				t.Fatalf("%s: tiling %v escaped the fixed point", s, lp.Analysis.Tiling)
			}
		}
	}
}
