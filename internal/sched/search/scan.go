package search

// The Exhaustive / Pruned candidate loop. Run enumerates the tiling
// space once into the admitted-tiling list; workers claim batches of
// that list through an atomic cursor and share the incumbent's exact
// energy through an atomic float, so a good candidate found by one
// worker immediately tightens every other worker's pruning test. One worker runs the loop
// inline on the calling goroutine; more run it on a pool.
//
// Determinism argument (the reduction can never move a golden schedule):
//
//  1. A candidate is pruned only when its admissible lower bound is
//     STRICTLY greater than the shared bound, and the shared bound is
//     only ever the exact energy of some feasible, already-evaluated
//     candidate. The global argmin's energy is ≤ every such value, so a
//     pruned candidate's exact energy is strictly greater than the
//     global minimum — it can neither win nor tie. Which candidates get
//     pruned varies with timing; whether the argmin survives does not.
//  2. Every surviving feasible candidate flows into a per-worker
//     incumbent kept under the canonical preference order (prefer), and
//     the final reduction folds the per-worker incumbents through the
//     same order. prefer is a strict total order on candidates (no two
//     share all five indices), so the fold's result is the unique
//     preference-minimal survivor regardless of partition or timing —
//     exactly what one worker returns.
//
// Work accounting (Stats) is deterministic for Tilings, Admitted and
// Candidates, and for every field at one worker; the
// Bounded/Pruned/Evaluated split of a pool legitimately varies with how
// early the shared bound tightens. The invariant
// Candidates == Evaluated + Pruned holds on every error-free run.

import (
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"rana/internal/pattern"
)

// tilingAt is one admitted tiling with its canonical enumeration index.
type tilingAt struct {
	t  pattern.Tiling
	ti int
}

// admittedPool recycles the admitted-tiling scratch across runs so a
// steady-state Run allocates no per-layer slice.
var admittedPool = sync.Pool{
	New: func() any { return new([]tilingAt) },
}

// collectAdmitted enumerates the tiling space once, sequentially, Tm
// outermost and Tc innermost — so Tilings and Admitted are deterministic
// and every tiling keeps its canonical index — into the pooled scratch
// buf, and returns the admitted list.
func collectAdmitted[T any](p Problem[T], buf *[]tilingAt, stats *Stats) []tilingAt {
	admitted := (*buf)[:0]
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
	*buf = admitted
	return admitted
}

// incumbentBound is the shared atomic upper bound on the optimum: the
// smallest exact energy of any feasible candidate evaluated so far,
// +Inf before the first. It only ever decreases.
type incumbentBound struct {
	bits atomic.Uint64
}

// reset empties the bound to +Inf.
func (b *incumbentBound) reset() { b.bits.Store(math.Float64bits(math.Inf(1))) }

func (b *incumbentBound) load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// tighten lowers the bound to e if e is smaller (monotone CAS loop).
func (b *incumbentBound) tighten(e float64) {
	for {
		cur := b.bits.Load()
		if math.Float64frombits(cur) <= e {
			return
		}
		if b.bits.CompareAndSwap(cur, math.Float64bits(e)) {
			return
		}
	}
}

// WorkerPanic carries a panic out of a worker goroutine so the
// coordinating goroutine can re-raise it where the scheduler's per-layer
// recover (sched.PanicError) can see it. Value is the worker's original
// panic value; the worker's stack rides along for diagnosis, so a
// recover that unwraps it reports the panic where it happened.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// fanOut runs work(0) … work(workers-1) on their own goroutines and
// waits for all of them. A worker panic sets stop, so the others quit at
// their next check, and is re-raised as a *WorkerPanic on the calling
// goroutine, where the scheduler's per-layer recover converts it into a
// *sched.PanicError: a poisoned candidate cannot kill a serving process.
func fanOut(workers int, stop *atomic.Bool, work func(w int)) {
	panics := make([]*WorkerPanic, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[w] = &WorkerPanic{Value: v, Stack: debug.Stack()}
					stop.Store(true)
				}
			}()
			work(w)
		}(w)
	}
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
}

// scanner is the state the workers of one scan share.
type scanner[T any] struct {
	p        Problem[T]
	admitted []tilingAt
	prune    bool
	batch    int
	cursor   atomic.Int64
	failed   atomic.Bool
	bound    incumbentBound
}

// init points the scanner at one run, with no incumbent yet. Workers
// claim fixed batches of tilings — eight per worker, so the load stays
// balanced without channels.
func (s *scanner[T]) init(p Problem[T], admitted []tilingAt, prune bool, workers int) {
	s.p, s.admitted, s.prune = p, admitted, prune
	s.batch = max(1, len(admitted)/(workers*8))
	s.bound.reset()
}

// scan runs Exhaustive (prune false) or Pruned over the admitted tilings
// on up to workers workers, accumulating into r.
func scan[T any](p Problem[T], admitted []tilingAt, prune bool, workers int, r *Result[T]) error {
	prune = prune && p.Bound != nil
	if workers = min(workers, len(admitted)); workers <= 1 || len(p.Kinds) == 0 {
		// Inline: no goroutine, and the scanner stays on this stack.
		var s scanner[T]
		s.init(p, admitted, prune, 1)
		_, err := s.work(r)
		return err
	}
	s := new(scanner[T])
	s.init(p, admitted, prune, workers)
	locals := make([]Result[T], workers)
	fails := make([]workerFailure, workers)
	fanOut(workers, &s.failed, func(w int) { fails[w].ti, fails[w].err = s.work(&locals[w]) })
	// Each tiling is scanned by one worker and a worker stops at its
	// first error, so failures lie in distinct tilings. Every batch
	// before the scan-first failure was claimed and finished, so that
	// failure is always seen — and it is the one a single worker hits.
	var fail *workerFailure
	for w := range fails {
		if f := &fails[w]; f.err != nil && (fail == nil || f.ti < fail.ti) {
			fail = f
		}
	}
	if fail != nil {
		return fail.err
	}
	for w := range locals {
		l := &locals[w]
		r.Stats.Add(l.Stats)
		if l.Found {
			r.offer(nil, &l.Candidate, &l.Outcome)
		}
	}
	r.Stats.Workers = max(r.Stats.Workers, workers)
	return nil
}

// workerFailure is one worker's evaluator error and the canonical index
// of the tiling it hit.
type workerFailure struct {
	ti  int
	err error
}

// work is the candidate loop: it claims batches of admitted tilings
// until none is left or a worker has failed, prunes a candidate only
// when its bound is strictly above the shared incumbent (an exact tie
// could still win the deterministic tie-break), and prices, records and
// offers every other one into r. On an evaluator error it stops every
// worker and returns the error with the failing tiling's index.
func (s *scanner[T]) work(r *Result[T]) (int, error) {
	p := &s.p
	points, travs, maps := p.points(), p.travs(), p.maps()
	// Each worker owns its pricing context: the per-axis caches are
	// scan-local, so sharing one across goroutines would race (and
	// thrash invalidation).
	var pricer Pricer
	if s.prune && p.NewPricer != nil {
		pricer = p.NewPricer()
		defer pricer.Release()
	}
	out := p.newOutcome()
	defer p.freeOutcome(out)
	rec := p.newRecorder()
	if rec != nil {
		defer rec.Release()
	}
	for !s.failed.Load() {
		lo := int(s.cursor.Add(int64(s.batch))) - s.batch
		if lo >= len(s.admitted) {
			return 0, nil
		}
		for _, ta := range s.admitted[lo:min(lo+s.batch, len(s.admitted))] {
			for ki, k := range p.Kinds {
				for pi := 0; pi < points; pi++ {
					for tv := 0; tv < travs; tv++ {
						for mi := 0; mi < maps; mi++ {
							r.Stats.Candidates++
							cell := Cell{Point: pi, Trav: tv, Map: mi}
							if best := s.bound.load(); s.prune && !math.IsInf(best, 1) {
								r.Stats.Bounded++
								var lb float64
								if pricer != nil {
									lb = pricer.Lower(k, ta.t, cell)
								} else {
									lb = p.Bound(k, ta.t, cell)
								}
								if lb > best {
									r.Stats.Pruned++
									continue
								}
							}
							if err := p.Evaluate(k, ta.t, cell, out); err != nil {
								s.failed.Store(true)
								return ta.ti, err
							}
							r.Stats.Evaluated++
							if out.Feasible {
								c := Candidate{Kind: k, KindIdx: ki, Tiling: ta.t, TilingIdx: ta.ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}
								r.offer(rec, &c, out)
								s.bound.tighten(out.Energy)
							}
						}
					}
				}
			}
		}
	}
	return 0, nil
}

// offer records a feasible priced candidate (rec may be nil) and makes
// it r's incumbent if it beats the current one in the canonical
// preference order.
func (r *Result[T]) offer(rec Recorder[T], c *Candidate, out *Outcome[T]) {
	if rec != nil {
		rec.Record(*c, out)
	}
	if !r.Found || prefer(out.Energy, c, r.Outcome.Energy, &r.Candidate) {
		r.Found, r.Candidate, r.Outcome = true, *c, *out
	}
}
