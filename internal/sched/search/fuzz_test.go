package search

// The engine's independent reference: a brute force over a random table
// spanning all five axes (kind, tiling, operating point, traversal,
// mapping). The table draws energies from six values so exact ties are
// common, bounds are admissible (infeasible cells bound to +Inf), and
// some tilings are not admitted. The brute force walks the candidates in
// canonical order and keeps the first strict minimum; every strategy
// must agree with it. Exhaustive and Pruned must also record what the
// scheduler's frontier build relies on, whatever order they scan in:
// Exhaustive every feasible admitted candidate, Pruned at least those
// whose bound is at or below the optimum, and neither any candidate
// twice.

import (
	"math"
	"testing"

	"rana/internal/pattern"
)

// fuzzTable is one random five-axis landscape.
type fuzzTable struct {
	kinds                []pattern.Kind
	tilings              int
	points, travs, maps  int // as the Problem sets them; 0 means one
	admitted             []bool
	energy, bound        []float64
	feasible             []bool
	extP, extTv, extMaps int // resolved extents
}

func newFuzzTable(seed uint64, nt, nk, np, ntv, nm uint8) *fuzzTable {
	all := []pattern.Kind{pattern.OD, pattern.WD, pattern.ID}
	ft := &fuzzTable{
		kinds:   all[:1+int(nk)%len(all)],
		tilings: 1 + int(nt)%12,
		points:  int(np) % 4,
		travs:   int(ntv) % 4,
		maps:    int(nm) % 4,
	}
	ft.extP, ft.extTv, ft.extMaps = axisExtent(ft.points), axisExtent(ft.travs), axisExtent(ft.maps)
	x := seed | 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	ft.admitted = make([]bool, ft.tilings)
	for i := range ft.admitted {
		ft.admitted[i] = next()%5 != 0
	}
	n := len(ft.kinds) * ft.tilings * ft.extP * ft.extTv * ft.extMaps
	ft.energy, ft.bound, ft.feasible = make([]float64, n), make([]float64, n), make([]bool, n)
	levels := []float64{1, 2, 3, 5, 8, 13}
	for i := 0; i < n; i++ {
		r := next()
		ft.energy[i] = levels[r%6]
		ft.feasible[i] = (r>>8)%4 != 0
		if ft.feasible[i] {
			// Never above the exact value; sometimes equal to it, so a
			// bound that ties the incumbent must still be priced.
			ft.bound[i] = ft.energy[i] - float64((r>>16)%3)
		} else {
			ft.bound[i] = math.Inf(1)
		}
	}
	return ft
}

// index is the table position of one candidate, in canonical order.
func (ft *fuzzTable) index(ki, ti int, c Cell) int {
	return (((ki*ft.tilings+ti)*ft.extP+c.Point)*ft.extTv+c.Trav)*ft.extMaps + c.Map
}

func (ft *fuzzTable) kindIdx(k pattern.Kind) int {
	for i, kk := range ft.kinds {
		if kk == k {
			return i
		}
	}
	panic("unknown kind")
}

func (ft *fuzzTable) problem() Problem[int] {
	return Problem[int]{
		Tm: upTo(ft.tilings), Tn: one, Tr: one, Tc: one,
		Kinds:  ft.kinds,
		Admit:  func(t pattern.Tiling) bool { return ft.admitted[t.Tm] },
		Points: ft.points,
		Travs:  ft.travs,
		Maps:   ft.maps,
		Bound: func(k pattern.Kind, t pattern.Tiling, c Cell) float64 {
			return ft.bound[ft.index(ft.kindIdx(k), t.Tm, c)]
		},
		Evaluate: func(k pattern.Kind, t pattern.Tiling, c Cell, out *Outcome[int]) error {
			i := ft.index(ft.kindIdx(k), t.Tm, c)
			*out = Outcome[int]{Feasible: ft.feasible[i], Energy: ft.energy[i], Value: i}
			return nil
		},
	}
}

// argmin is the brute force: the first strict minimum over the feasible
// admitted candidates, walked kind-major in canonical order.
func (ft *fuzzTable) argmin() (Candidate, float64, bool) {
	var best Candidate
	bestE, found := 0.0, false
	for ki, k := range ft.kinds {
		for ti := 0; ti < ft.tilings; ti++ {
			if !ft.admitted[ti] {
				continue
			}
			for pi := 0; pi < ft.extP; pi++ {
				for tv := 0; tv < ft.extTv; tv++ {
					for mi := 0; mi < ft.extMaps; mi++ {
						i := ft.index(ki, ti, Cell{Point: pi, Trav: tv, Map: mi})
						if ft.feasible[i] && (!found || ft.energy[i] < bestE) {
							best = Candidate{Kind: k, KindIdx: ki, Tiling: pattern.Tiling{Tm: ti, Tn: 1, Tr: 1, Tc: 1},
								TilingIdx: ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}
							bestE, found = ft.energy[i], true
						}
					}
				}
			}
		}
	}
	return best, bestE, found
}

// mustRecord reports which table cells a run must record: every feasible
// admitted candidate whose bound is at most limit (+Inf: all of them).
func (ft *fuzzTable) mustRecord(limit float64) []bool {
	must := make([]bool, len(ft.energy))
	for ki := range ft.kinds {
		for ti := 0; ti < ft.tilings; ti++ {
			if !ft.admitted[ti] {
				continue
			}
			for pi := 0; pi < ft.extP; pi++ {
				for tv := 0; tv < ft.extTv; tv++ {
					for mi := 0; mi < ft.extMaps; mi++ {
						i := ft.index(ki, ti, Cell{Point: pi, Trav: tv, Map: mi})
						must[i] = ft.feasible[i] && ft.bound[i] <= limit
					}
				}
			}
		}
	}
	return must
}

func FuzzRunMatchesBruteForce(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(11), uint8(2), uint8(3), uint8(3), uint8(3))
	f.Add(uint64(3), uint8(5), uint8(1), uint8(2), uint8(0), uint8(3))
	f.Add(uint64(4), uint8(7), uint8(2), uint8(0), uint8(2), uint8(1))
	f.Add(uint64(0xdeadbeef), uint8(9), uint8(1), uint8(1), uint8(3), uint8(2))
	// The unique optimum sits at tiling index 0, which the scan reaches
	// last.
	f.Add(uint64(1805), uint8(11), uint8(2), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nt, nk, np, ntv, nm uint8) {
		ft := newFuzzTable(seed, nt, nk, np, ntv, nm)
		want, wantE, found := ft.argmin()
		admitted := 0
		for _, a := range ft.admitted {
			if a {
				admitted++
			}
		}
		total := admitted * len(ft.kinds) * ft.extP * ft.extTv * ft.extMaps
		check := func(name string, r Result[int]) {
			t.Helper()
			if r.Found != found || found && (r.Candidate != want || r.Outcome.Energy != wantE) {
				t.Fatalf("%s: got %v %+v at %v, brute force %v %+v at %v", name, r.Found, r.Candidate, r.Outcome.Energy, found, want, wantE)
			}
			if r.Stats.Tilings != ft.tilings || r.Stats.Admitted != admitted {
				t.Fatalf("%s: stats %+v, want %d tilings, %d admitted", name, r.Stats, ft.tilings, admitted)
			}
		}
		for _, s := range []Strategy{Exhaustive, Pruned} {
			// With no feasible candidate nothing must be recorded, so
			// wantE's zero value is never read as an optimum.
			limit := wantE
			if s == Exhaustive {
				limit = math.Inf(1)
			}
			recorded := make([]bool, len(ft.energy))
			p := ft.problem()
			p.Record = func(c Candidate, out *Outcome[int]) {
				i := ft.index(c.KindIdx, c.TilingIdx, c.Cell())
				if i != out.Value || !ft.feasible[i] || recorded[i] {
					t.Fatalf("%s: recorded %+v (cell %d, priced as %d) infeasible, misindexed or twice", s, c, i, out.Value)
				}
				recorded[i] = true
			}
			r, err := Run(p, Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			check(string(s), r)
			if st := r.Stats; st.Candidates != total || st.Candidates != st.Evaluated+st.Pruned {
				t.Fatalf("%s: stats %+v, want %d candidates = evaluated + pruned", s, st, total)
			}
			for i, must := range ft.mustRecord(limit) {
				if must && !recorded[i] {
					t.Fatalf("%s: feasible cell %d (energy %v, bound %v) not recorded; optimum %v", s, i, ft.energy[i], ft.bound[i], wantE)
				}
			}
		}
		r, err := Run(ft.problem(), Options{Strategy: Beam, BeamWidth: max(total, 1)})
		if err != nil {
			t.Fatal(err)
		}
		check("full beam", r)
		if total <= 1 {
			return
		}
		// A narrow beam may miss the optimum but never beats it, and finds
		// a feasible plan whenever one exists (its fallback rescans the
		// admitted list, counted once).
		width := 1 + int(seed>>32)%(total-1)
		r, err = Run(ft.problem(), Options{Strategy: Beam, BeamWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		if r.Found != found || found && (r.Outcome.Energy < wantE || !ft.feasible[r.Outcome.Value]) {
			t.Fatalf("beam/%d: got %v at %v, brute force %v at %v", width, r.Found, r.Outcome.Energy, found, wantE)
		}
		if r.Stats.Tilings != ft.tilings || r.Stats.Admitted != admitted {
			t.Fatalf("beam/%d: stats %+v, want %d tilings, %d admitted", width, r.Stats, ft.tilings, admitted)
		}
	})
}
