package search

import "sync"

// scored is one candidate with its lower bound, awaiting exact pricing.
type scored struct {
	c     Candidate
	bound float64
}

// worse orders scored candidates by descending promise: larger bound
// first, later canonical position first on ties — exactly the candidate
// a full beam evicts next, so the kept set (and therefore the beam's
// result) is deterministic regardless of evaluation cost or timing.
// Pointer operands: a scored is larger than the runtime copies inline,
// and the bounding pass compares once per candidate.
func worse(a, b *scored) bool {
	return a.bound > b.bound || a.bound == b.bound && canonicalBefore(&b.c, &a.c)
}

// beamHeap is a max-heap by worse — the root is the least promising
// kept candidate, the one a better arrival displaces. The sift
// operations are container/heap's, typed: the interface form boxed
// every pushed candidate.
type beamHeap []scored

// up restores the heap property from leaf j towards the root.
func (h beamHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !worse(&h[j], &h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down restores the heap property from i towards the leaves.
func (h beamHeap) down(i int) {
	for {
		j := 2*i + 1 // left child
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && worse(&h[r], &h[j]) {
			j = r
		}
		if !worse(&h[j], &h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// keptPool recycles the survivor scratch across beam runs, so the
// steady-state beam allocates no per-layer slice.
var keptPool = sync.Pool{New: func() any { return new(beamHeap) }}

// beam runs the budgeted top-K strategy over the admitted tilings: bound
// every candidate, keep the width most promising, price only those. If
// none of the kept candidates turns out feasible, the bound budget was
// spent on infeasible space — fall back to a branch-and-bound scan of the
// same admitted list, so Beam never reports "no feasible tiling" when one
// exists.
func beam[T any](p *Problem[T], admitted []tilingAt, width int, r *Result[T]) error {
	points, travs, maps := p.points(), p.travs(), p.maps()
	buf := keptPool.Get().(*beamHeap)
	defer keptPool.Put(buf)
	kept := (*buf)[:0]
	for _, ta := range admitted {
		for ki, k := range p.Kinds {
			for pi := 0; pi < points; pi++ {
				for tv := 0; tv < travs; tv++ {
					for mi := 0; mi < maps; mi++ {
						r.Stats.Candidates++
						s := scored{c: Candidate{Kind: k, KindIdx: ki, Tiling: ta.t, TilingIdx: ta.ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}}
						if p.Bound != nil {
							r.Stats.Bounded++
							s.bound = p.Bound(k, ta.t, s.c.Cell())
						}
						switch {
						case len(kept) < width:
							kept = append(kept, s)
							kept.up(len(kept) - 1)
						case worse(&kept[0], &s):
							kept[0] = s
							kept.down(0)
							r.Stats.Pruned++
						default:
							r.Stats.Pruned++
						}
					}
				}
			}
		}
	}
	*buf = kept

	// Price the survivors in canonical preference order so the plain
	// first-wins strict-< rule reproduces the shared tie-break. The heap
	// is done with, so the survivors sort in place.
	sortCanonical(kept)
	out := p.Out
	for i := range kept {
		c := &kept[i].c
		if err := p.Evaluate(c.Kind, c.Tiling, c.Cell(), out); err != nil {
			return err
		}
		r.Stats.Evaluated++
		if out.Feasible {
			r.offer(p.Record, c, out)
		}
	}
	if r.Found {
		return nil
	}
	return scan(p, admitted, true, r)
}

// sortCanonical orders survivors by canonical position — the order ties
// are defined over. Insertion sort: the beam is small and the input
// nearly unordered heap backing.
func sortCanonical(xs []scored) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && canonicalBefore(&xs[j].c, &xs[j-1].c); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
