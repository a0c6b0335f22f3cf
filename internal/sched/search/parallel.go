package search

// The parallel branch-and-bound scan. The candidate space is partitioned
// across a bounded worker pool; workers share the incumbent's exact
// energy through an atomic float so a good candidate found by one worker
// immediately tightens every other worker's pruning test.
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
//     incumbent kept under the canonical preference order (prefer:
//     energy, then kind index, then tiling index), and the final
//     reduction folds the per-worker incumbents through the same order.
//     prefer is a strict total order on candidates (no two candidates
//     share (KindIdx, TilingIdx)), so the fold's result is the unique
//     preference-minimal survivor regardless of partition or timing —
//     exactly what the sequential strict-< first-wins loop returns.
//
// Work accounting (Stats) is deterministic for Tilings, Admitted and
// Candidates; the Bounded/Pruned/Evaluated split legitimately varies
// with how early the shared bound tightens. The invariant
// Candidates == Evaluated + Pruned holds on every error-free run.

import (
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"rana/internal/pattern"
)

// stack snapshots the panicking worker's stack for the re-raised value.
func stack() []byte { return debug.Stack() }

// tilingAt is one admitted tiling with its canonical enumeration index.
type tilingAt struct {
	t  pattern.Tiling
	ti int
}

// admittedPool recycles the materialized admitted-tiling scratch across
// explorations so the steady-state parallel scan allocates no per-layer
// slice.
var admittedPool = sync.Pool{
	New: func() any { return new([]tilingAt) },
}

// collectAdmitted drains the space once — sequentially, so Tilings and
// Admitted stay deterministic and the canonical tiling indices match the
// streaming loop's — into a pooled scratch slice. The caller must hand
// the slice back via releaseAdmitted.
func collectAdmitted[T any](p Problem[T], stats *Stats) *[]tilingAt {
	buf := admittedPool.Get().(*[]tilingAt)
	admitted := (*buf)[:0]
	for ti := 0; ; ti++ {
		t, ok := p.Space.Next()
		if !ok {
			break
		}
		stats.Tilings++
		if p.Admit != nil && !p.Admit(t) {
			continue
		}
		stats.Admitted++
		admitted = append(admitted, tilingAt{t: t, ti: ti})
	}
	*buf = admitted
	return buf
}

func releaseAdmitted(buf *[]tilingAt) {
	*buf = (*buf)[:0]
	admittedPool.Put(buf)
}

// incumbentBound is the shared atomic upper bound on the optimum: the
// smallest exact energy of any feasible candidate evaluated so far,
// starting at +Inf. It only ever decreases.
type incumbentBound struct {
	bits atomic.Uint64
}

func newIncumbentBound() *incumbentBound {
	b := &incumbentBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

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

// workerFailure is one worker's first evaluator error, tagged with the
// candidate position so the coordinator can surface a canonical-earliest
// error when several workers fail in one run.
type workerFailure struct {
	err error
	c   Candidate
}

// scanParallel is scan with the admitted space partitioned across
// `workers` goroutines. Plans are byte-identical to the sequential scan
// by the argument at the top of this file.
func scanParallel[T any](p Problem[T], prune bool, workers int) (Result[T], error) {
	var r Result[T]
	buf := collectAdmitted(p, &r.Stats)
	defer releaseAdmitted(buf)
	admitted := *buf

	points, travs, maps := p.points(), p.travs(), p.maps()
	if workers > len(admitted) {
		workers = len(admitted)
	}
	if workers <= 1 || len(p.Kinds) == 0 {
		// Too little work to fan out: finish on the calling goroutine.
		seq, err := scanSlice(p, prune, admitted)
		seq.Stats.Add(r.Stats)
		return seq, err
	}
	r.Stats.Workers = workers

	// Workers pull fixed batches of tilings through an atomic cursor —
	// cheap dynamic load balancing without channels — and prune against
	// the shared incumbent bound.
	batch := len(admitted) / (workers * 8)
	if batch < 1 {
		batch = 1
	}
	var (
		cursor atomic.Int64
		failed atomic.Bool
		shared = newIncumbentBound()
		wg     sync.WaitGroup

		locals   = make([]Result[T], workers)
		failures = make([]*workerFailure, workers)
		panics   = make([]*WorkerPanic, workers)
	)
	prune = prune && p.Bound != nil
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
			// Each worker owns its own incremental pricing context: the
			// per-axis caches are scan-local state, so sharing one across
			// goroutines would race and (worse) thrash invalidation.
			var pricer Pricer
			if prune && p.NewPricer != nil {
				pricer = p.NewPricer()
				defer pricer.Release()
			}
			local := &locals[w]
			out := p.newOutcome()
			defer p.freeOutcome(out)
			rec := p.newRecorder()
			if rec != nil {
				defer rec.Release()
			}
			for !failed.Load() {
				lo := int(cursor.Add(int64(batch))) - batch
				if lo >= len(admitted) {
					return
				}
				hi := lo + batch
				if hi > len(admitted) {
					hi = len(admitted)
				}
				for _, ta := range admitted[lo:hi] {
					for ki, k := range p.Kinds {
						for pi := 0; pi < points; pi++ {
							for tv := 0; tv < travs; tv++ {
								for mi := 0; mi < maps; mi++ {
									local.Stats.Candidates++
									cell := Cell{Point: pi, Trav: tv, Map: mi}
									if prune {
										if best := shared.load(); !math.IsInf(best, 1) {
											local.Stats.Bounded++
											// Strictly greater only, exactly like the
											// sequential scan: an exact tie could still
											// win the deterministic tie-break.
											var lb float64
											if pricer != nil {
												lb = pricer.Lower(k, ta.t, cell)
											} else {
												lb = p.Bound(k, ta.t, cell)
											}
											if lb > best {
												local.Stats.Pruned++
												continue
											}
										}
									}
									if err := p.Evaluate(k, ta.t, cell, out); err != nil {
										if failures[w] == nil {
											failures[w] = &workerFailure{err: err,
												c: Candidate{Kind: k, KindIdx: ki, Tiling: ta.t, TilingIdx: ta.ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}}
										}
										failed.Store(true)
										return
									}
									local.Stats.Evaluated++
									if !out.Feasible {
										continue
									}
									c := Candidate{Kind: k, KindIdx: ki, Tiling: ta.t, TilingIdx: ta.ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}
									if rec != nil {
										rec.Record(c, out)
									}
									if !local.Found || prefer(out.Energy, &c, local.Outcome.Energy, &local.Candidate) {
										local.Found, local.Candidate, local.Outcome = true, c, *out
									}
									shared.tighten(out.Energy)
								}
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for _, pv := range panics {
		if pv != nil {
			// Re-raise on the coordinating goroutine: the scheduler's
			// per-layer recover converts it into a *sched.PanicError so a
			// poisoned candidate cannot kill a serving process.
			panic(pv)
		}
	}
	var fail *workerFailure
	for _, f := range failures {
		if f == nil {
			continue
		}
		if fail == nil || canonicalBefore(&f.c, &fail.c) {
			fail = f
		}
	}
	for w := range locals {
		l := &locals[w]
		r.Stats.Add(l.Stats)
		if !l.Found {
			continue
		}
		if !r.Found || prefer(l.Outcome.Energy, &l.Candidate, r.Outcome.Energy, &r.Candidate) {
			r.Found, r.Candidate, r.Outcome = true, l.Candidate, l.Outcome
		}
	}
	r.Stats.Workers = workers
	if fail != nil {
		return Result[T]{}, fail.err
	}
	return r, nil
}

// scanSlice is the sequential inner loop over a pre-admitted tiling
// list — the degenerate tail of scanParallel when the space is too small
// to justify goroutines. Tilings/Admitted are the caller's; this only
// accounts candidate work.
func scanSlice[T any](p Problem[T], prune bool, admitted []tilingAt) (Result[T], error) {
	var r Result[T]
	r.Stats.Workers = 1
	prune = prune && p.Bound != nil
	points, travs, maps := p.points(), p.travs(), p.maps()
	var pricer Pricer
	if prune && p.NewPricer != nil {
		pricer = p.NewPricer()
		defer pricer.Release()
	}
	out := p.newOutcome()
	defer p.freeOutcome(out)
	rec := p.newRecorder()
	if rec != nil {
		defer rec.Release()
	}
	for _, ta := range admitted {
		for ki, k := range p.Kinds {
			for pi := 0; pi < points; pi++ {
				for tv := 0; tv < travs; tv++ {
					for mi := 0; mi < maps; mi++ {
						r.Stats.Candidates++
						cell := Cell{Point: pi, Trav: tv, Map: mi}
						if prune && r.Found {
							r.Stats.Bounded++
							var lb float64
							if pricer != nil {
								lb = pricer.Lower(k, ta.t, cell)
							} else {
								lb = p.Bound(k, ta.t, cell)
							}
							if lb > r.Outcome.Energy {
								r.Stats.Pruned++
								continue
							}
						}
						if err := p.Evaluate(k, ta.t, cell, out); err != nil {
							return Result[T]{}, err
						}
						r.Stats.Evaluated++
						if !out.Feasible {
							continue
						}
						c := Candidate{Kind: k, KindIdx: ki, Tiling: ta.t, TilingIdx: ta.ti, PointIdx: pi, TravIdx: tv, MapIdx: mi}
						if rec != nil {
							rec.Record(c, out)
						}
						if !r.Found || prefer(out.Energy, &c, r.Outcome.Energy, &r.Candidate) {
							r.Found, r.Candidate, r.Outcome = true, c, *out
						}
					}
				}
			}
		}
	}
	return r, nil
}
