package search

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rana/internal/pattern"
)

// pseudoTable builds a deterministic pseudo-random candidate table over n
// tilings and the given kinds: energies collide often (quantized to a
// handful of levels) so the canonical tie-break is exercised, bounds are
// admissible by construction, and a fraction of candidates is
// infeasible. seed varies the landscape between rounds.
func pseudoTable(n int, kinds []pattern.Kind, seed uint64) map[string]entry {
	table := make(map[string]entry, n*len(kinds))
	x := seed*2654435761 + 1
	for i := 0; i < n; i++ {
		for _, k := range kinds {
			x = x*6364136223846793005 + 1442695040888963407
			e := float64((x>>33)%17) + 1 // few levels -> many exact ties
			table[k.String()+"/"+itoa(i)] = entry{
				energy:   e,
				feasible: (x>>7)%5 != 0,
				bound:    e - float64((x>>13)%3), // never exceeds the exact value
			}
		}
	}
	return table
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestParallelMatchesSequentialRandomized is the core determinism check:
// for randomized landscapes full of exact ties, every strategy at every
// worker count returns the identical candidate and energy as one
// worker, and the work accounting invariant
// Candidates == Evaluated + Pruned holds on every run.
func TestParallelMatchesSequentialRandomized(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	for _, n := range []int{1, 2, 3, 17, 64, 257} {
		for seed := uint64(0); seed < 4; seed++ {
			table := pseudoTable(n, kinds, seed)
			for _, s := range []Strategy{Exhaustive, Pruned} {
				ref, err := Run(synthetic(n, kinds, table, nil), Options{Strategy: s, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8, 16} {
					got, err := Run(synthetic(n, kinds, table, nil), Options{Strategy: s, Parallelism: workers})
					if err != nil {
						t.Fatal(err)
					}
					if got.Found != ref.Found || got.Candidate != ref.Candidate ||
						got.Outcome.Energy != ref.Outcome.Energy || got.Outcome.Value != ref.Outcome.Value {
						t.Fatalf("%s n=%d seed=%d workers=%d: got %+v / %+v, want %+v / %+v",
							s, n, seed, workers, got.Candidate, got.Outcome, ref.Candidate, ref.Outcome)
					}
					st := got.Stats
					if st.Candidates != st.Evaluated+st.Pruned {
						t.Fatalf("%s n=%d workers=%d: accounting %d != %d evaluated + %d pruned",
							s, n, workers, st.Candidates, st.Evaluated, st.Pruned)
					}
					if st.Tilings != ref.Stats.Tilings || st.Admitted != ref.Stats.Admitted ||
						st.Candidates != ref.Stats.Candidates {
						t.Fatalf("%s n=%d workers=%d: deterministic stats moved: %+v vs %+v",
							s, n, workers, st, ref.Stats)
					}
				}
			}
		}
	}
}

// TestParallelTieBreakAcrossPartitions pins the reduction: with every
// candidate at the same energy, the earliest canonical candidate must
// win no matter how the partitions race, including when an admit filter
// shifts the canonical indices.
func TestParallelTieBreakAcrossPartitions(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	const n = 100
	table := make(map[string]entry, 2*n)
	for i := 0; i < n; i++ {
		for _, k := range kinds {
			table[k.String()+"/"+itoa(i)] = entry{energy: 3, feasible: true, bound: 3}
		}
	}
	table["OD/0"] = entry{energy: 3, feasible: false, bound: 3}
	for _, workers := range []int{2, 7, 33} {
		p := synthetic(n, kinds, table, nil)
		p.Admit = func(ti pattern.Tiling) bool { return ti.Tm != 1 }
		r, err := Run(p, Options{Strategy: Pruned, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		// OD/0 is infeasible and Tm==1 is not admitted, so the earliest
		// surviving canonical candidate is OD at tiling index 2.
		if !r.Found || r.Outcome.Value != "OD/2" {
			t.Fatalf("workers=%d: chose %q (found=%v), want OD/2", workers, r.Outcome.Value, r.Found)
		}
		if r.Candidate.KindIdx != 0 || r.Candidate.TilingIdx != 2 {
			t.Fatalf("workers=%d: candidate %+v, want kind 0 tiling 2", workers, r.Candidate)
		}
	}
}

// TestParallelPropagatesEvaluatorErrors: a failing evaluator must fail
// the whole run at every worker count, never return a partial result.
func TestParallelPropagatesEvaluatorErrors(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	table := map[string]entry{"OD/0": {energy: 1, feasible: true}}
	// Every index >= 1 is missing from the table, so Evaluate errors.
	for _, workers := range []int{2, 8} {
		r, err := Run(synthetic(50, kinds, table, nil), Options{Strategy: Exhaustive, Parallelism: workers})
		if err == nil {
			t.Fatalf("workers=%d: evaluator error swallowed", workers)
		}
		if !strings.Contains(err.Error(), "no entry for") {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if r.Found {
			t.Fatalf("workers=%d: partial result alongside error", workers)
		}
	}
}

// TestPoolErrorIsTheOneWorkerError: when several workers fail, the pool
// returns the failure that comes first in scan order (tiling, then
// kind) — the one a single worker hits — not the canonical-earliest,
// which is kind-major. With kinds OD, WD over two tilings, (WD, tiling
// 0) is scan-first and (OD, tiling 1) canonical-first; on the pool a
// barrier holds each failing evaluation until both have started, so
// neither worker can stop the other first.
func TestPoolErrorIsTheOneWorkerError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var barrier sync.WaitGroup
		if workers > 1 {
			barrier.Add(2)
		}
		p := Problem[string]{
			Tm: upTo(2), Tn: one, Tr: one, Tc: one,
			Kinds: []pattern.Kind{pattern.OD, pattern.WD},
			Evaluate: func(k pattern.Kind, ti pattern.Tiling, _ Cell, out *Outcome[string]) error {
				var err error
				switch {
				case k == pattern.WD && ti.Tm == 0:
					err = errors.New("scan-first")
				case k == pattern.OD && ti.Tm == 1:
					err = errors.New("canonical-first")
				default:
					*out = Outcome[string]{Feasible: true, Energy: 1}
					return nil
				}
				if workers > 1 {
					barrier.Done()
					barrier.Wait()
				}
				return err
			},
		}
		_, err := Run(p, Options{Strategy: Exhaustive, Parallelism: workers})
		if err == nil || err.Error() != "scan-first" {
			t.Errorf("workers=%d: error %v, want scan-first", workers, err)
		}
	}
}

// TestParallelRepanicsWorkerPanics: a panic inside a worker goroutine
// must resurface on the calling goroutine (where sched's per-layer
// recover can convert it) with the original value attached.
func TestParallelRepanicsWorkerPanics(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	p := Problem[string]{
		Tm: upTo(64), Tn: one, Tr: one, Tc: one,
		Kinds: kinds,
		Evaluate: func(k pattern.Kind, ti pattern.Tiling, _ Cell, out *Outcome[string]) error {
			if ti.Tm == 40 {
				panic("poisoned candidate")
			}
			*out = Outcome[string]{Feasible: true, Energy: float64(ti.Tm)}
			return nil
		},
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic swallowed")
		}
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", v)
		}
		if wp.Value != "poisoned candidate" || len(wp.Stack) == 0 {
			t.Fatalf("panic payload %+v lost the original value or stack", wp)
		}
	}()
	_, _ = Run(p, Options{Strategy: Exhaustive, Parallelism: 8})
}

// TestBeamParallelMatchesSequential: the beam's fan-out pricing must
// keep the pick, the priced count and the fallback behavior of the
// sequential beam.
func TestBeamParallelMatchesSequential(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	for seed := uint64(0); seed < 4; seed++ {
		table := pseudoTable(64, kinds, seed)
		ref, err := Run(synthetic(64, kinds, table, nil), Options{Strategy: Beam, BeamWidth: 9, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5} {
			got, err := Run(synthetic(64, kinds, table, nil), Options{Strategy: Beam, BeamWidth: 9, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.Found != ref.Found || got.Candidate != ref.Candidate || got.Outcome.Energy != ref.Outcome.Energy {
				t.Fatalf("seed=%d workers=%d: beam pick moved: %+v vs %+v", seed, workers, got.Candidate, ref.Candidate)
			}
			if got.Stats.Evaluated != ref.Stats.Evaluated {
				t.Fatalf("seed=%d workers=%d: beam priced %d, want %d", seed, workers, got.Stats.Evaluated, ref.Stats.Evaluated)
			}
		}
	}
}

// TestSharedBoundStress is the -race stress of the shared-bound pool:
// many workers hammer the atomic incumbent over a tie-heavy landscape,
// and the result must match one worker's every round.
func TestSharedBoundStress(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD, pattern.ID}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for seed := uint64(0); seed < uint64(rounds); seed++ {
		table := pseudoTable(150, kinds, seed+100)
		ref, err := Run(synthetic(150, kinds, table, nil), Options{Strategy: Pruned, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 16, 32} {
			got, err := Run(synthetic(150, kinds, table, nil), Options{Strategy: Pruned, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.Candidate != ref.Candidate || got.Outcome.Energy != ref.Outcome.Energy {
				t.Fatalf("seed=%d workers=%d: argmin moved under contention", seed, workers)
			}
		}
	}
}

// TestIncumbentBoundTighten covers the atomic min directly.
func TestIncumbentBoundTighten(t *testing.T) {
	var b incumbentBound
	b.reset()
	if !math.IsInf(b.load(), 1) {
		t.Fatalf("fresh bound = %v, want +Inf", b.load())
	}
	b.tighten(5)
	b.tighten(9) // higher value must not loosen
	if b.load() != 5 {
		t.Fatalf("bound = %v, want 5", b.load())
	}
	b.tighten(2)
	if b.load() != 2 {
		t.Fatalf("bound = %v, want 2", b.load())
	}
}

// TestEffectiveParallelism pins the knob's resolution rules.
func TestEffectiveParallelism(t *testing.T) {
	if got := EffectiveParallelism(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("EffectiveParallelism(0) = %d, want GOMAXPROCS", got)
	}
	if got := EffectiveParallelism(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("EffectiveParallelism(-3) = %d, want GOMAXPROCS", got)
	}
	if got := EffectiveParallelism(5); got != 5 {
		t.Errorf("EffectiveParallelism(5) = %d", got)
	}
	if got := EffectiveParallelism(MaxParallelism + 7); got != MaxParallelism {
		t.Errorf("EffectiveParallelism(cap+7) = %d, want %d", got, MaxParallelism)
	}
}
