package search

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"rana/internal/pattern"
)

func TestStrategyValidateAndResolve(t *testing.T) {
	for _, s := range append(Strategies(), Strategy("")) {
		if err := s.Validate(); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
	if err := Strategy("genetic").Validate(); err == nil {
		t.Error("unknown strategy validated")
	}
	if Strategy("").Resolve() != Pruned {
		t.Errorf("default strategy = %v, want pruned", Strategy("").Resolve())
	}
	if EffectiveWidth(0) != DefaultBeamWidth || EffectiveWidth(7) != 7 {
		t.Error("EffectiveWidth")
	}
}

func TestAxis(t *testing.T) {
	got := Axis(14, 16)
	want := []int{1, 2, 4, 8, 14}
	if len(got) != len(want) {
		t.Fatalf("Axis(14,16) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Axis(14,16) = %v, want %v", got, want)
		}
	}
	// The array width joins when it fits; values stay ascending and
	// deduplicated.
	got = Axis(64, 16)
	prev := 0
	has16, has64 := false, false
	for _, v := range got {
		if v <= prev {
			t.Fatalf("Axis(64,16) not strictly ascending: %v", got)
		}
		prev = v
		has16 = has16 || v == 16
		has64 = has64 || v == 64
	}
	if !has16 || !has64 {
		t.Errorf("Axis(64,16) = %v, missing array width or dim", got)
	}
}

func TestProductStreamsFullCrossProductInOrder(t *testing.T) {
	p := NewProduct([]int{1, 2}, []int{3}, []int{4, 5}, []int{6, 7})
	if p.Size() != 8 {
		t.Fatalf("Size = %d", p.Size())
	}
	var got []pattern.Tiling
	for {
		ti, ok := p.Next()
		if !ok {
			break
		}
		got = append(got, ti)
	}
	want := []pattern.Tiling{
		{Tm: 1, Tn: 3, Tr: 4, Tc: 6}, {Tm: 1, Tn: 3, Tr: 4, Tc: 7},
		{Tm: 1, Tn: 3, Tr: 5, Tc: 6}, {Tm: 1, Tn: 3, Tr: 5, Tc: 7},
		{Tm: 2, Tn: 3, Tr: 4, Tc: 6}, {Tm: 2, Tn: 3, Tr: 4, Tc: 7},
		{Tm: 2, Tn: 3, Tr: 5, Tc: 6}, {Tm: 2, Tn: 3, Tr: 5, Tc: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d tilings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tiling %d = %v, want %v (historical Tm-major nesting)", i, got[i], want[i])
		}
	}
	// Exhausted stays exhausted; Reset rewinds.
	if _, ok := p.Next(); ok {
		t.Error("Next after exhaustion")
	}
	p.Reset()
	if ti, ok := p.Next(); !ok || ti != want[0] {
		t.Errorf("Reset: got %v/%v", ti, ok)
	}
}

func TestEmptyProduct(t *testing.T) {
	p := NewProduct(nil, []int{1}, []int{1}, []int{1})
	if p.Size() != 0 {
		t.Fatalf("Size = %d", p.Size())
	}
	if _, ok := p.Next(); ok {
		t.Error("empty product yielded a tiling")
	}
}

// synthetic builds a Problem over a fixed candidate table keyed by
// (kind, Tm): energies, feasibility and bounds are scripted so the
// strategies' selection logic is tested in isolation.
type entry struct {
	energy   float64
	feasible bool
	bound    float64
}

func synthetic(tilings []pattern.Tiling, kinds []pattern.Kind, table map[string]entry, evaluated *[]string) Problem[string] {
	key := func(k pattern.Kind, t pattern.Tiling) string { return fmt.Sprintf("%v/%d", k, t.Tm) }
	return Problem[string]{
		Space: NewSlice(tilings),
		Kinds: kinds,
		Bound: func(k pattern.Kind, t pattern.Tiling, _ Cell) float64 { return table[key(k, t)].bound },
		Evaluate: func(k pattern.Kind, t pattern.Tiling, _ Cell, out *Outcome[string]) error {
			id := key(k, t)
			e, ok := table[id]
			if !ok {
				return errors.New("no entry for " + id)
			}
			if evaluated != nil {
				*evaluated = append(*evaluated, id)
			}
			*out = Outcome[string]{Feasible: e.feasible, Energy: e.energy, Value: id}
			return nil
		},
	}
}

func tilingsN(n int) []pattern.Tiling {
	ts := make([]pattern.Tiling, n)
	for i := range ts {
		ts[i] = pattern.Tiling{Tm: i, Tn: 1, Tr: 1, Tc: 1}
	}
	return ts
}

// TestTieBreakKeepsEarliestCanonicalCandidate is the regression test
// pinning deterministic tie-breaking: among equal-energy feasible
// candidates, every strategy returns the earliest in canonical
// (kind-major, then tiling) enumeration order — the legacy pattern-major
// strict-< rule — so Pruned or any parallel variant can never silently
// flip equal-energy argmins.
func TestTieBreakKeepsEarliestCanonicalCandidate(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	// Equal minimum energy at three points; canonical order is
	// OD/0, OD/1, OD/2, WD/0, WD/1, WD/2 — the winner must be OD/1
	// (OD/0 is infeasible).
	table := map[string]entry{
		"OD/0": {energy: 5, feasible: false},
		"OD/1": {energy: 5, feasible: true},
		"OD/2": {energy: 5, feasible: true},
		"WD/0": {energy: 5, feasible: true},
		"WD/1": {energy: 6, feasible: true},
		"WD/2": {energy: 7, feasible: true},
	}
	for _, s := range Strategies() {
		r, err := Run(synthetic(tilingsN(3), kinds, table, nil), Options{Strategy: s, BeamWidth: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || r.Outcome.Value != "OD/1" {
			t.Errorf("%s: chose %q (found=%v), want OD/1 — equal-energy tie must keep the earliest canonical candidate", s, r.Outcome.Value, r.Found)
		}
	}
	// A strictly cheaper later candidate still wins under WD even though
	// OD comes first in kind order.
	table["WD/2"] = entry{energy: 1, feasible: true}
	for _, s := range Strategies() {
		r, err := Run(synthetic(tilingsN(3), kinds, table, nil), Options{Strategy: s, BeamWidth: 10})
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome.Value != "WD/2" {
			t.Errorf("%s: chose %q, want WD/2", s, r.Outcome.Value)
		}
	}
}

// TestPrunedSkipsBoundedCandidatesButKeepsArgmin: candidates whose
// bound exceeds the incumbent are never priced; candidates whose bound
// merely *equals* the incumbent still are (they could tie and win the
// tie-break).
func TestPrunedSkipsBoundedCandidatesButKeepsArgmin(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	table := map[string]entry{
		"OD/0": {energy: 10, feasible: true, bound: 1},
		"OD/1": {energy: 30, feasible: true, bound: 20}, // bound > incumbent 10: pruned
		"OD/2": {energy: 10, feasible: true, bound: 10}, // bound == incumbent: must be priced
		"OD/3": {energy: 4, feasible: true, bound: 3},   // new argmin
	}
	// One worker: the evaluated list pins the sequential scan's pruning
	// order, which a worker pool makes timing-dependent (and the
	// recording evaluator is not safe for concurrent use).
	var evaluated []string
	r, err := Run(synthetic(tilingsN(4), kinds, table, &evaluated), Options{Strategy: Pruned, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome.Value != "OD/3" {
		t.Errorf("argmin = %q, want OD/3", r.Outcome.Value)
	}
	want := []string{"OD/0", "OD/2", "OD/3"}
	if len(evaluated) != len(want) {
		t.Fatalf("evaluated %v, want %v", evaluated, want)
	}
	for i := range want {
		if evaluated[i] != want[i] {
			t.Fatalf("evaluated %v, want %v", evaluated, want)
		}
	}
	if r.Stats.Pruned != 1 || r.Stats.Evaluated != 3 || r.Stats.Candidates != 4 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

// TestBeamPricesOnlyTheMostPromising: with width 2, only the two
// best-bounded candidates are priced, and the beam's pick is the best
// among them even if the global optimum was dropped.
func TestBeamPricesOnlyTheMostPromising(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	table := map[string]entry{
		"OD/0": {energy: 9, feasible: true, bound: 5},
		"OD/1": {energy: 2, feasible: true, bound: 8}, // global optimum, but poorly bounded
		"OD/2": {energy: 7, feasible: true, bound: 4},
		"OD/3": {energy: 8, feasible: true, bound: 6},
	}
	// One worker, as above: the evaluated list is in pricing order.
	var evaluated []string
	r, err := Run(synthetic(tilingsN(4), kinds, table, &evaluated), Options{Strategy: Beam, BeamWidth: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(evaluated) != 2 || evaluated[0] != "OD/0" || evaluated[1] != "OD/2" {
		t.Fatalf("evaluated %v, want [OD/0 OD/2] in canonical order", evaluated)
	}
	if r.Outcome.Value != "OD/2" {
		t.Errorf("beam pick = %q, want OD/2", r.Outcome.Value)
	}
	if r.Stats.Evaluated != 2 || r.Stats.Pruned != 2 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

// TestBeamFallsBackWhenBudgetAllInfeasible: if every kept candidate is
// infeasible, the beam rescans the space branch-and-bound style rather
// than reporting no feasible tiling.
func TestBeamFallsBackWhenBudgetAllInfeasible(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	table := map[string]entry{
		"OD/0": {energy: 1, feasible: false, bound: 1},
		"OD/1": {energy: 2, feasible: false, bound: 2},
		"OD/2": {energy: 9, feasible: true, bound: 9},
	}
	r, err := Run(synthetic(tilingsN(3), kinds, table, nil), Options{Strategy: Beam, BeamWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || r.Outcome.Value != "OD/2" {
		t.Errorf("fallback pick = %q (found=%v), want OD/2", r.Outcome.Value, r.Found)
	}
}

func TestRunPropagatesEvaluatorErrors(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	p := synthetic(tilingsN(1), kinds, map[string]entry{}, nil) // empty table: every Evaluate errors
	for _, s := range Strategies() {
		if _, err := Run(p, Options{Strategy: s}); err == nil {
			t.Errorf("%s: evaluator error swallowed", s)
		}
		p.Space.Reset()
	}
}

func TestRunRejectsUnknownStrategy(t *testing.T) {
	p := synthetic(tilingsN(1), []pattern.Kind{pattern.OD}, map[string]entry{"OD/0": {energy: 1, feasible: true}}, nil)
	if _, err := Run(p, Options{Strategy: "annealing"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestAdmitFiltersBeforeKinds(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	table := map[string]entry{
		"OD/1": {energy: 2, feasible: true},
		"WD/1": {energy: 3, feasible: true},
	}
	p := synthetic(tilingsN(2), kinds, table, nil)
	p.Admit = func(t pattern.Tiling) bool { return t.Tm == 1 }
	r, err := Run(p, Options{Strategy: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Tilings != 2 || r.Stats.Admitted != 1 || r.Stats.Candidates != 2 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if r.Outcome.Value != "OD/1" {
		t.Errorf("pick = %q", r.Outcome.Value)
	}
}

// collector gathers what every scan goroutine's Recorder saw, and how
// many were leased but not yet released.
type collector struct {
	mu   sync.Mutex
	seen []string
	open int
}

type collectingRecorder struct {
	c    *collector
	seen []string
}

func (r *collectingRecorder) Record(_ Candidate, out *Outcome[string]) {
	r.seen = append(r.seen, out.Value)
}

func (r *collectingRecorder) Release() {
	r.c.mu.Lock()
	r.c.seen = append(r.c.seen, r.seen...)
	r.c.open--
	r.c.mu.Unlock()
}

func (c *collector) lease() Recorder[string] {
	c.mu.Lock()
	c.open++
	c.mu.Unlock()
	return &collectingRecorder{c: c}
}

// TestRecorderSeesEachFeasiblePricedCandidateOnce: on every strategy
// and worker count, recording leaves the result alone, every leased
// Recorder is released, and the recorded candidates are feasible,
// distinct, include the winner and number no more than the exact
// evaluations — exactly the feasible ones under Exhaustive, and under a
// beam wide enough to keep every candidate.
func TestRecorderSeesEachFeasiblePricedCandidateOnce(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD, pattern.WD}
	table := map[string]entry{}
	feasible := 0
	for _, k := range kinds {
		for tm := 0; tm < 12; tm++ {
			e := entry{energy: float64((tm*7+int(k)*5)%11 + 2), feasible: tm%4 != 1}
			e.bound = e.energy / 2
			table[fmt.Sprintf("%v/%d", k, tm)] = e
			if e.feasible {
				feasible++
			}
		}
	}
	for _, s := range Strategies() {
		for _, workers := range []int{1, 4} {
			o := Options{Strategy: s, BeamWidth: 64, Parallelism: workers}
			plain, err := Run(synthetic(tilingsN(12), kinds, table, nil), o)
			if err != nil {
				t.Fatal(err)
			}
			var c collector
			p := synthetic(tilingsN(12), kinds, table, nil)
			p.NewRecorder = c.lease
			r, err := Run(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Outcome != plain.Outcome || r.Candidate != plain.Candidate {
				t.Errorf("%s/p%d: recording changed the result %+v -> %+v", s, workers, plain.Outcome, r.Outcome)
			}
			if c.open != 0 {
				t.Errorf("%s/p%d: %d recorders never released", s, workers, c.open)
			}
			distinct := map[string]bool{}
			for _, id := range c.seen {
				if distinct[id] || !table[id].feasible {
					t.Errorf("%s/p%d: recorded %s twice or infeasible", s, workers, id)
				}
				distinct[id] = true
			}
			if !distinct[r.Outcome.Value] || len(c.seen) > r.Stats.Evaluated {
				t.Errorf("%s/p%d: recorded %d (winner %v) of %d evaluated", s, workers, len(c.seen), distinct[r.Outcome.Value], r.Stats.Evaluated)
			}
			if s != Pruned && len(c.seen) != feasible {
				t.Errorf("%s/p%d: recorded %d, want all %d feasible candidates", s, workers, len(c.seen), feasible)
			}
		}
	}
}
