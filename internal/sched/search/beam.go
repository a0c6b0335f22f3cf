package search

import (
	"sync"
	"sync/atomic"
)

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
//
// Beam composes with parallelism: the bounding pass stays sequential
// (it is the cheap part and keeps the kept set trivially deterministic),
// while the expensive exact pricing of the kept set fans out across the
// worker pool. The survivors are sorted into canonical order *before*
// the fan-out and reduced in that same order afterwards, so the
// first-wins strict-< rule sees them exactly as one worker would.
func beam[T any](p Problem[T], admitted []tilingAt, width, workers int, r *Result[T]) error {
	points, travs, maps := p.points(), p.travs(), p.maps()
	// The bounding pass is sequential, so one pricing context covers it;
	// the feasibility-fallback scan below acquires its own.
	var pricer Pricer
	if p.Bound != nil && p.NewPricer != nil {
		pricer = p.NewPricer()
		defer pricer.Release()
	}
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
							if pricer != nil {
								s.bound = pricer.Lower(k, ta.t, s.c.Cell())
							} else {
								s.bound = p.Bound(k, ta.t, s.c.Cell())
							}
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
	if err := priceKept(p, kept, workers, r); err != nil || r.Found {
		return err
	}
	return scan(p, admitted, true, workers, r)
}

// priceKept prices the canonically sorted survivors into r, keeping the
// running best under the canonical preference order. One worker prices
// into a single leased scratch Outcome; more fan out into index-aligned
// outcomes and offer them in the same order.
func priceKept[T any](p Problem[T], kept []scored, workers int, r *Result[T]) error {
	rec := p.newRecorder()
	if rec != nil {
		defer rec.Release()
	}
	if workers = min(workers, len(kept)); workers > 1 {
		// The workers capture the evaluator alone: a closure over the
		// whole Problem, too large to capture by value, would move p to
		// the heap on every call, the one-worker path's included.
		evaluate := p.Evaluate
		outs := make([]Outcome[T], len(kept))
		errs := make([]error, len(kept))
		var cursor atomic.Int64
		var failed atomic.Bool
		fanOut(workers, &failed, func(int) {
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(kept) {
					return
				}
				c := &kept[i].c
				if errs[i] = evaluate(c.Kind, c.Tiling, c.Cell(), &outs[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		})
		// Indices are claimed in order and a claimed one is always
		// evaluated, so the first error in index (canonical) order is
		// the one a single worker hits.
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		r.Stats.Evaluated += len(kept)
		r.Stats.Workers = max(r.Stats.Workers, workers)
		for i := range kept {
			if outs[i].Feasible {
				r.offer(rec, &kept[i].c, &outs[i])
			}
		}
		return nil
	}
	out := p.newOutcome()
	defer p.freeOutcome(out)
	for i := range kept {
		c := &kept[i].c
		if err := p.Evaluate(c.Kind, c.Tiling, c.Cell(), out); err != nil {
			return err
		}
		r.Stats.Evaluated++
		if out.Feasible {
			r.offer(rec, c, out)
		}
	}
	return nil
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
