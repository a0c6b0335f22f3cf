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
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.c.KindIdx != b.c.KindIdx {
		return a.c.KindIdx > b.c.KindIdx
	}
	if a.c.TilingIdx != b.c.TilingIdx {
		return a.c.TilingIdx > b.c.TilingIdx
	}
	if a.c.PointIdx != b.c.PointIdx {
		return a.c.PointIdx > b.c.PointIdx
	}
	if a.c.TravIdx != b.c.TravIdx {
		return a.c.TravIdx > b.c.TravIdx
	}
	return a.c.MapIdx > b.c.MapIdx
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

// beam runs the budgeted top-K strategy: bound every candidate in one
// streaming pass, keep the width most promising, price only those. If
// none of the kept candidates turns out feasible, the bound budget was
// spent on infeasible space — fall back to a full branch-and-bound
// rescan so Beam never reports "no feasible tiling" when one exists.
//
// Beam composes with parallelism: the bounding pass stays sequential
// (it is the cheap streaming part and keeps the kept set trivially
// deterministic), while the expensive exact pricing of the kept set
// fans out across the worker pool. The survivors are sorted into
// canonical order *before* the fan-out and reduced in that same order
// afterwards, so the first-wins strict-< rule sees them exactly as the
// sequential loop would.
func beam[T any](p Problem[T], width, workers int) (Result[T], error) {
	var r Result[T]
	r.Stats.Workers = 1
	points, travs, maps := p.points(), p.travs(), p.maps()
	// The bounding pass is sequential, so one pricing context covers it;
	// the feasibility-fallback rescan below acquires its own.
	var pricer Pricer
	if p.Bound != nil && p.NewPricer != nil {
		pricer = p.NewPricer()
		defer pricer.Release()
	}
	buf := keptPool.Get().(*beamHeap)
	defer keptPool.Put(buf)
	kept := (*buf)[:0]
	for ti := 0; ; ti++ {
		t, ok := p.Space.Next()
		if !ok {
			break
		}
		r.Stats.Tilings++
		if p.Admit != nil && !p.Admit(t) {
			continue
		}
		r.Stats.Admitted++
		for ki, k := range p.Kinds {
			for pi := 0; pi < points; pi++ {
				for tv := 0; tv < travs; tv++ {
					for mi := 0; mi < maps; mi++ {
						r.Stats.Candidates++
						s := scored{c: Candidate{Kind: k, KindIdx: ki, Tiling: t, TilingIdx: ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}}
						if p.Bound != nil {
							r.Stats.Bounded++
							if pricer != nil {
								s.bound = pricer.Lower(k, t, s.c.Cell())
							} else {
								s.bound = p.Bound(k, t, s.c.Cell())
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
	if err := priceKept(p, kept, workers, &r); err != nil {
		return Result[T]{}, err
	}
	if !r.Found {
		p.Space.Reset()
		var full Result[T]
		var err error
		if workers > 1 {
			full, err = scanParallel(p, p.Bound != nil, workers)
		} else {
			full, err = scan(p, p.Bound != nil)
		}
		if err != nil {
			return Result[T]{}, err
		}
		full.Stats.Add(r.Stats)
		return full, nil
	}
	return r, nil
}

// priceKept prices the canonically sorted survivors into r, keeping the
// running best under the canonical preference order. One worker prices
// into a single leased scratch Outcome, exactly as scan does; more fan
// out through priceOrdered and reduce its index-aligned results in the
// same order.
func priceKept[T any](p Problem[T], kept []scored, workers int, r *Result[T]) error {
	rec := p.newRecorder()
	if rec != nil {
		defer rec.Release()
	}
	if min(workers, len(kept)) > 1 {
		outs, err := priceOrdered(p, kept, workers, &r.Stats)
		if err != nil {
			return err
		}
		for i := range kept {
			if !outs[i].Feasible {
				continue
			}
			if rec != nil {
				rec.Record(kept[i].c, &outs[i])
			}
			if !r.Found || prefer(outs[i].Energy, &kept[i].c, r.Outcome.Energy, &r.Candidate) {
				r.Found, r.Candidate, r.Outcome = true, kept[i].c, outs[i]
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
		if !out.Feasible {
			continue
		}
		if rec != nil {
			rec.Record(*c, out)
		}
		if !r.Found || prefer(out.Energy, c, r.Outcome.Energy, &r.Candidate) {
			r.Found, r.Candidate, r.Outcome = true, *c, *out
		}
	}
	return nil
}

// priceOrdered evaluates the canonically sorted survivors across a
// pool of workers > 1 (capped at the survivor count). Results land in
// an index-aligned slice so the caller's sequential reduction is
// oblivious to evaluation order; on errors the canonically earliest one
// wins (index order == canonical order here).
func priceOrdered[T any](p Problem[T], ordered []scored, workers int, stats *Stats) ([]Outcome[T], error) {
	outs := make([]Outcome[T], len(ordered))
	workers = min(workers, len(ordered))
	if workers > stats.Workers {
		stats.Workers = workers
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, len(ordered))
		panics = make([]*WorkerPanic, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[w] = &WorkerPanic{Value: v, Stack: stack()}
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(ordered) {
					return
				}
				if err := p.Evaluate(ordered[i].c.Kind, ordered[i].c.Tiling, ordered[i].c.Cell(), &outs[i]); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
	evaluated := 0
	var firstErr error
	for i := range ordered {
		if errs[i] != nil {
			firstErr = errs[i]
			break
		}
		evaluated++
	}
	if firstErr != nil {
		return nil, firstErr
	}
	stats.Evaluated += evaluated
	return outs, nil
}

// sortCanonical orders survivors by (kind index, tiling index, point
// index, traversal index, mapping index) — the canonical enumeration
// order ties are defined over. Insertion sort: the beam is small and
// the input nearly unordered heap backing.
func sortCanonical(xs []scored) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && canonicalBefore(&xs[j].c, &xs[j-1].c); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// canonicalBefore reports whether a precedes b in canonical order.
func canonicalBefore(a, b *Candidate) bool {
	if a.KindIdx != b.KindIdx {
		return a.KindIdx < b.KindIdx
	}
	if a.TilingIdx != b.TilingIdx {
		return a.TilingIdx < b.TilingIdx
	}
	if a.PointIdx != b.PointIdx {
		return a.PointIdx < b.PointIdx
	}
	if a.TravIdx != b.TravIdx {
		return a.TravIdx < b.TravIdx
	}
	return a.MapIdx < b.MapIdx
}
