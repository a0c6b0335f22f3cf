package search

// The Exhaustive / Pruned candidate loop. Run enumerates the tiling
// space once into the admitted-tiling list, in canonical order, and
// scan walks that list from its last entry to its first on the calling
// goroutine — largest tiles first — with the incumbent's exact energy
// as the pruning bound. Large tiles reuse the most data on chip, so the
// first few candidates priced set an incumbent near the optimum and
// most of the rest are pruned unpriced. Each candidate keeps its
// canonical index, and prefer breaks ties by it, so the walk's
// direction moves the work and the Stats, never the result.
//
// Pruning never moves the argmin: a candidate is pruned only when its
// admissible lower bound is STRICTLY greater than the bound, and the
// bound is only ever the exact energy of some feasible, already-evaluated
// candidate. The argmin's energy is at most that, so a pruned candidate
// can neither win nor tie. And since no incumbent is ever below the
// optimum, every candidate whose bound is at or below the optimum is
// priced, in any walk order: the scheduler's frontier build rests on
// that. The invariant Candidates == Evaluated + Pruned holds on every
// error-free run.

import (
	"math"
	"sync"

	"rana/internal/pattern"
)

// tilingAt is one admitted tiling with its canonical enumeration index.
type tilingAt struct {
	t  pattern.Tiling
	ti int
}

// scratch is one Run's working memory: the admitted tilings, the bounds
// Bound fills for one tiling's candidates, and the beam's survivors. It
// is pooled across runs, so a steady-state Run allocates no per-layer
// slice.
type scratch struct {
	admitted []tilingAt
	bounds   []float64
	kept     beamHeap
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// collectAdmitted enumerates the tiling space once, sequentially, Tm
// outermost and Tc innermost — so Tilings and Admitted are deterministic
// and every tiling keeps its canonical index — into sc.admitted.
func collectAdmitted[T any](p *Problem[T], sc *scratch, stats *Stats) {
	admitted := sc.admitted[:0]
	ti := 0
	for _, tm := range p.Tm {
		for _, tn := range p.Tn {
			for _, tr := range p.Tr {
				for _, tc := range p.Tc {
					t := pattern.Tiling{Tm: tm, Tn: tn, Tr: tr, Tc: tc}
					if p.Admit == nil || p.Admit(t) {
						admitted = append(admitted, tilingAt{t: t, ti: ti})
					}
					ti++
				}
			}
		}
	}
	stats.Tilings, stats.Admitted = ti, len(admitted)
	sc.admitted = admitted
}

// boundSlots returns the bounds scratch resized to n slots, one per
// candidate of a tiling, reusing its storage when it can.
func (sc *scratch) boundSlots(n int) []float64 {
	if cap(sc.bounds) < n {
		sc.bounds = make([]float64, n)
	}
	return sc.bounds[:n]
}

// scan runs Exhaustive (prune false) or Pruned over the admitted tilings,
// last to first, accumulating into r. It prunes a candidate only when
// its bound is strictly above the incumbent's energy (an exact tie could
// still win the canonical tie-break), and prices, records and offers
// every other one. A tiling's bounds are filled when the first of its
// candidates is compared.
func scan[T any](p *Problem[T], sc *scratch, prune bool, r *Result[T]) error {
	prune = prune && p.Bound != nil
	points, travs, maps := p.points(), p.travs(), p.maps()
	bounds := sc.boundSlots(p.cells())
	out, best := p.Out, math.Inf(1)
	for i := len(sc.admitted) - 1; i >= 0; i-- {
		ta := &sc.admitted[i]
		filled := false
		j := 0 // the candidate's position in bounds
		for ki, k := range p.Kinds {
			for pi := 0; pi < points; pi++ {
				for tv := 0; tv < travs; tv++ {
					for mi := 0; mi < maps; mi, j = mi+1, j+1 {
						r.Stats.Candidates++
						cell := Cell{Point: pi, Trav: tv, Map: mi}
						if prune && !math.IsInf(best, 1) {
							if !filled {
								p.Bound(ta.t, bounds)
								filled = true
							}
							r.Stats.Bounded++
							if bounds[j] > best {
								r.Stats.Pruned++
								continue
							}
						}
						if err := p.Evaluate(k, ta.t, cell, out); err != nil {
							return err
						}
						r.Stats.Evaluated++
						if out.Feasible {
							c := Candidate{Kind: k, KindIdx: ki, Tiling: ta.t, TilingIdx: ta.ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}
							r.offer(p.Record, &c, out)
							best = min(best, out.Energy)
						}
					}
				}
			}
		}
	}
	return nil
}

// offer records a feasible priced candidate (record may be nil) and
// makes it r's incumbent if it beats the current one in the canonical
// preference order.
func (r *Result[T]) offer(record func(Candidate, *Outcome[T]), c *Candidate, out *Outcome[T]) {
	if record != nil {
		record(*c, out)
	}
	if !r.Found || prefer(out.Energy, c, r.Outcome.Energy, &r.Candidate) {
		r.Found, r.Candidate, r.Outcome = true, *c, *out
	}
}
