package search

import (
	"errors"
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

// goRuns runs o on p from workers goroutines at once, as the scheduler's
// layer pool runs one Run per layer, and returns each goroutine's result
// and error.
func goRuns(p func() Problem[string], o Options, workers int) ([]Result[string], []error) {
	results := make([]Result[string], workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = Run(p(), o)
		}(w)
	}
	wg.Wait()
	return results, errs
}

// runConcurrently is goRuns for Runs that must not fail.
func runConcurrently(t *testing.T, p func() Problem[string], o Options, workers int) []Result[string] {
	t.Helper()
	results, errs := goRuns(p, o, workers)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// TestParallelMatchesSequentialRandomized: on randomized landscapes full
// of exact ties, Exhaustive and Pruned Runs on several goroutines at
// once each return what one sequential Run returns — candidate, energy
// and every Stats field — and Candidates == Evaluated + Pruned holds.
// Under -race it also checks that concurrent Runs share no unsynchronized
// state.
func TestParallelMatchesSequentialRandomized(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	for _, n := range []int{1, 2, 3, 17, 64, 257} {
		for seed := uint64(0); seed < 4; seed++ {
			table := pseudoTable(n, kinds, seed)
			problem := func() Problem[string] { return synthetic(n, kinds, table, nil) }
			for _, s := range []Strategy{Exhaustive, Pruned} {
				ref, err := Run(problem(), Options{Strategy: s})
				if err != nil {
					t.Fatal(err)
				}
				if st := ref.Stats; st.Candidates != st.Evaluated+st.Pruned {
					t.Fatalf("%s n=%d seed=%d: accounting %d != %d evaluated + %d pruned",
						s, n, seed, st.Candidates, st.Evaluated, st.Pruned)
				}
				for w, got := range runConcurrently(t, problem, Options{Strategy: s}, 4) {
					if got.Found != ref.Found || got.Candidate != ref.Candidate ||
						got.Outcome != ref.Outcome || got.Stats != ref.Stats {
						t.Fatalf("%s n=%d seed=%d goroutine %d: got %+v / %+v / %+v, want %+v / %+v / %+v",
							s, n, seed, w, got.Candidate, got.Outcome, got.Stats, ref.Candidate, ref.Outcome, ref.Stats)
					}
				}
			}
		}
	}
}

// TestParallelTieBreakAcrossPartitions pins the reduction where a
// compile partitions its layers across goroutines: with every candidate
// at the same energy, the earliest canonical candidate must win under
// every strategy, in one Run and in Runs on several goroutines at once,
// including when an admit filter shifts the canonical indices.
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
	problem := func() Problem[string] {
		p := synthetic(n, kinds, table, nil)
		p.Admit = func(ti pattern.Tiling) bool { return ti.Tm != 1 }
		return p
	}
	for _, s := range Strategies() {
		for _, workers := range []int{1, 4} {
			for w, r := range runConcurrently(t, problem, Options{Strategy: s, BeamWidth: 10}, workers) {
				// OD/0 is infeasible and Tm==1 is not admitted, so the
				// earliest surviving canonical candidate is OD at tiling
				// index 2.
				if !r.Found || r.Outcome.Value != "OD/2" || r.Candidate.KindIdx != 0 || r.Candidate.TilingIdx != 2 {
					t.Fatalf("%s workers=%d goroutine %d: chose %q at %+v (found=%v), want OD/2 at kind 0, tiling 2",
						s, workers, w, r.Outcome.Value, r.Candidate, r.Found)
				}
			}
		}
	}
}

// TestParallelPropagatesEvaluatorErrors: a failing evaluator must fail
// the whole Run under every strategy, in one Run and in Runs on several
// goroutines at once, never with a partial result.
func TestParallelPropagatesEvaluatorErrors(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	// Only OD/0 prices; every index >= 1 is missing from the table, so
	// Evaluate errors.
	table := map[string]entry{"OD/0": {energy: 1, feasible: true}}
	problem := func() Problem[string] { return synthetic(50, kinds, table, nil) }
	for _, s := range Strategies() {
		for _, workers := range []int{1, 4} {
			results, errs := goRuns(problem, Options{Strategy: s, BeamWidth: 64}, workers)
			for w, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "no entry for") {
					t.Fatalf("%s workers=%d goroutine %d: error %v, want the evaluator error", s, workers, w, err)
				}
				if results[w].Found {
					t.Fatalf("%s workers=%d goroutine %d: partial result alongside error", s, workers, w)
				}
			}
		}
	}
}

// TestPoolErrorIsTheOneWorkerError: when several candidates fail, Run
// returns the failure that comes first in scan order (tilings last to
// first, then kind) — the one a single worker hits — not the
// canonical-earliest, which is kind-major with tilings first to last,
// and Runs on several goroutines at once each return that same error.
// With kinds OD, WD over two tilings, (WD, tiling 1) is scan-first and
// (OD, tiling 0) canonical-first.
func TestPoolErrorIsTheOneWorkerError(t *testing.T) {
	problem := func() Problem[string] {
		return Problem[string]{
			Tm: upTo(2), Tn: one, Tr: one, Tc: one,
			Kinds: []pattern.Kind{pattern.OD, pattern.WD},
			Evaluate: func(k pattern.Kind, ti pattern.Tiling, _ Cell, out *Outcome[string]) error {
				switch {
				case k == pattern.WD && ti.Tm == 1:
					return errors.New("scan-first")
				case k == pattern.OD && ti.Tm == 0:
					return errors.New("canonical-first")
				}
				*out = Outcome[string]{Feasible: true, Energy: 1}
				return nil
			},
		}
	}
	for _, workers := range []int{1, 4} {
		_, errs := goRuns(problem, Options{Strategy: Exhaustive}, workers)
		for w, err := range errs {
			if err == nil || err.Error() != "scan-first" {
				t.Errorf("workers=%d goroutine %d: error %v, want scan-first", workers, w, err)
			}
		}
	}
}

// TestBeamParallelMatchesSequential: beam Runs on several goroutines at
// once keep the sequential beam's pick, priced count and fallback.
func TestBeamParallelMatchesSequential(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	for seed := uint64(0); seed < 4; seed++ {
		table := pseudoTable(64, kinds, seed)
		problem := func() Problem[string] { return synthetic(64, kinds, table, nil) }
		o := Options{Strategy: Beam, BeamWidth: 9}
		ref, err := Run(problem(), o)
		if err != nil {
			t.Fatal(err)
		}
		for w, got := range runConcurrently(t, problem, o, 4) {
			if got.Found != ref.Found || got.Candidate != ref.Candidate || got.Outcome != ref.Outcome || got.Stats != ref.Stats {
				t.Fatalf("seed=%d goroutine %d: beam moved: %+v / %+v, want %+v / %+v", seed, w, got.Candidate, got.Stats, ref.Candidate, ref.Stats)
			}
		}
	}
}
