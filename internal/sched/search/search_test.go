package search

import (
	"errors"
	"fmt"
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

// TestRunEnumeratesTilingsTmMajor: Run enumerates the cross product of
// the four tile-size lists once, Tm outermost and Tc innermost, and a
// tiling's canonical index is its position in that order whether or not
// the tilings before it were admitted. Exhaustive then prices the
// admitted tilings last to first, each under its canonical index.
func TestRunEnumeratesTilingsTmMajor(t *testing.T) {
	want := []pattern.Tiling{
		{Tm: 1, Tn: 3, Tr: 4, Tc: 6}, {Tm: 1, Tn: 3, Tr: 4, Tc: 7},
		{Tm: 1, Tn: 3, Tr: 5, Tc: 6}, {Tm: 1, Tn: 3, Tr: 5, Tc: 7},
		{Tm: 2, Tn: 3, Tr: 4, Tc: 6}, {Tm: 2, Tn: 3, Tr: 4, Tc: 7},
		{Tm: 2, Tn: 3, Tr: 5, Tc: 6}, {Tm: 2, Tn: 3, Tr: 5, Tc: 7},
	}
	pos := func(ti pattern.Tiling) int {
		for i, w := range want {
			if w == ti {
				return i
			}
		}
		t.Fatalf("tiling %v is not in the space", ti)
		return -1
	}
	for _, s := range Strategies() {
		var got []Candidate
		p := Problem[string]{
			Tm: []int{1, 2}, Tn: []int{3}, Tr: []int{4, 5}, Tc: []int{6, 7},
			Kinds: []pattern.Kind{pattern.OD},
			Admit: func(ti pattern.Tiling) bool { return ti != want[0] },
			Evaluate: func(_ pattern.Kind, ti pattern.Tiling, _ Cell, out *Outcome[string]) error {
				// The cheapest tiling is the sixth.
				*out = Outcome[string]{Feasible: true, Energy: float64(max(pos(ti)-5, 5-pos(ti)))}
				return nil
			},
			Record: func(c Candidate, _ *Outcome[string]) { got = append(got, c) },
		}
		r, err := Run(p, Options{Strategy: s, BeamWidth: 64})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Tilings != 8 || r.Stats.Admitted != 7 {
			t.Errorf("%s: %d tilings, %d admitted, want 8 and 7", s, r.Stats.Tilings, r.Stats.Admitted)
		}
		if r.Candidate.Tiling != want[5] || r.Candidate.TilingIdx != 5 {
			t.Errorf("%s: chose %v at index %d, want %v at 5", s, r.Candidate.Tiling, r.Candidate.TilingIdx, want[5])
		}
		for _, c := range got {
			if c.Tiling != want[c.TilingIdx] {
				t.Fatalf("%s: tiling %v at canonical index %d, want %v there (Tm-major nesting)", s, c.Tiling, c.TilingIdx, want[c.TilingIdx])
			}
		}
		if s == Exhaustive {
			// Exhaustive prices every admitted tiling, last to first.
			if len(got) != 7 {
				t.Fatalf("priced %d tilings, want 7: %v", len(got), got)
			}
			for i, c := range got {
				if wi := 7 - i; c.TilingIdx != wi {
					t.Fatalf("priced #%d at canonical index %d, want %d (last to first)", i, c.TilingIdx, wi)
				}
			}
		}
	}
}

// TestRunEmptyTileSizeListHasNoTiling: an empty list along any axis
// empties the space, so no strategy finds or prices anything.
func TestRunEmptyTileSizeListHasNoTiling(t *testing.T) {
	for axis := 0; axis < 4; axis++ {
		lists := [4][]int{{1}, {1}, {1}, {1}}
		lists[axis] = nil
		for _, s := range Strategies() {
			p := synthetic(1, []pattern.Kind{pattern.OD}, map[string]entry{}, nil)
			p.Tm, p.Tn, p.Tr, p.Tc = lists[0], lists[1], lists[2], lists[3]
			r, err := Run(p, Options{Strategy: s})
			if err != nil {
				t.Fatalf("axis %d, %s: %v", axis, s, err)
			}
			if r.Found || r.Stats.Tilings != 0 || r.Stats.Candidates != 0 {
				t.Errorf("axis %d, %s: found=%v, stats %+v, want an empty run", axis, s, r.Found, r.Stats)
			}
		}
	}
}

// synthetic builds a Problem over the n tilings of upTo(n) and a fixed
// candidate table keyed by (kind, Tm): energies, feasibility and bounds
// are scripted so the strategies' selection logic is tested in
// isolation.
type entry struct {
	energy   float64
	feasible bool
	bound    float64
}

func synthetic(n int, kinds []pattern.Kind, table map[string]entry, evaluated *[]string) Problem[string] {
	key := func(k pattern.Kind, t pattern.Tiling) string { return fmt.Sprintf("%v/%d", k, t.Tm) }
	return Problem[string]{
		Tm: upTo(n), Tn: one, Tr: one, Tc: one,
		Kinds: kinds,
		Bound: func(t pattern.Tiling, out []float64) {
			for ki, k := range kinds {
				out[ki] = table[key(k, t)].bound
			}
		},
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

// upTo is the tile-size list 0, 1, …, n-1. With one along the other
// three axes its space is the n tilings ⟨i, 1, 1, 1⟩, tiling i at
// canonical index i.
func upTo(n int) []int {
	l := make([]int, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// one is the single-valued tile-size list {1}.
var one = []int{1}

// TestTieBreakKeepsEarliestCanonicalCandidate is the regression test
// pinning deterministic tie-breaking: among equal-energy feasible
// candidates, every strategy returns the earliest in canonical
// (kind-major, then tiling) enumeration order — the legacy pattern-major
// strict-< rule — so Pruned or Beam can never silently flip
// equal-energy argmins.
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
		r, err := Run(synthetic(3, kinds, table, nil), Options{Strategy: s, BeamWidth: 10})
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
		r, err := Run(synthetic(3, kinds, table, nil), Options{Strategy: s, BeamWidth: 10})
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
// tie-break). The scan walks the tilings last to first, so the table
// reads bottom up.
func TestPrunedSkipsBoundedCandidatesButKeepsArgmin(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	table := map[string]entry{
		"OD/0": {energy: 4, feasible: true, bound: 3},   // new argmin
		"OD/1": {energy: 10, feasible: true, bound: 10}, // bound == incumbent: must be priced
		"OD/2": {energy: 30, feasible: true, bound: 20}, // bound > incumbent 10: pruned
		"OD/3": {energy: 10, feasible: true, bound: 1},  // first priced: incumbent 10
	}
	// The evaluated list pins the scan's pruning order.
	var evaluated []string
	r, err := Run(synthetic(4, kinds, table, &evaluated), Options{Strategy: Pruned})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome.Value != "OD/0" {
		t.Errorf("argmin = %q, want OD/0", r.Outcome.Value)
	}
	want := []string{"OD/3", "OD/1", "OD/0"}
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
	// The evaluated list is in pricing order.
	var evaluated []string
	r, err := Run(synthetic(4, kinds, table, &evaluated), Options{Strategy: Beam, BeamWidth: 2})
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
	r, err := Run(synthetic(3, kinds, table, nil), Options{Strategy: Beam, BeamWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || r.Outcome.Value != "OD/2" {
		t.Errorf("fallback pick = %q (found=%v), want OD/2", r.Outcome.Value, r.Found)
	}
}

// TestRunPropagatesEvaluatorErrors: a failing evaluator fails the run
// under every strategy.
func TestRunPropagatesEvaluatorErrors(t *testing.T) {
	kinds := []pattern.Kind{pattern.OD}
	for _, s := range Strategies() {
		p := synthetic(1, kinds, map[string]entry{}, nil) // empty table: every Evaluate errors
		if _, err := Run(p, Options{Strategy: s}); err == nil {
			t.Errorf("%s: evaluator error swallowed", s)
		}
	}
}

func TestRunRejectsUnknownStrategy(t *testing.T) {
	p := synthetic(1, []pattern.Kind{pattern.OD}, map[string]entry{"OD/0": {energy: 1, feasible: true}}, nil)
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
	p := synthetic(2, kinds, table, nil)
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

// TestRecorderSeesEachFeasiblePricedCandidateOnce: on every strategy,
// recording leaves the result alone, and the recorded candidates are
// feasible, distinct, include the winner and number no more than the
// exact evaluations — exactly the feasible ones under Exhaustive, and
// under a beam wide enough to keep every candidate.
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
		o := Options{Strategy: s, BeamWidth: 64}
		plain, err := Run(synthetic(12, kinds, table, nil), o)
		if err != nil {
			t.Fatal(err)
		}
		var seen []string
		p := synthetic(12, kinds, table, nil)
		p.Record = func(_ Candidate, out *Outcome[string]) { seen = append(seen, out.Value) }
		r, err := Run(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Outcome != plain.Outcome || r.Candidate != plain.Candidate || r.Stats != plain.Stats {
			t.Errorf("%s: recording changed the result %+v -> %+v", s, plain.Outcome, r.Outcome)
		}
		distinct := map[string]bool{}
		for _, id := range seen {
			if distinct[id] || !table[id].feasible {
				t.Errorf("%s: recorded %s twice or infeasible", s, id)
			}
			distinct[id] = true
		}
		if !distinct[r.Outcome.Value] || len(seen) > r.Stats.Evaluated {
			t.Errorf("%s: recorded %d (winner %v) of %d evaluated", s, len(seen), distinct[r.Outcome.Value], r.Stats.Evaluated)
		}
		if s != Pruned && len(seen) != feasible {
			t.Errorf("%s: recorded %d, want all %d feasible candidates", s, len(seen), feasible)
		}
	}
}
