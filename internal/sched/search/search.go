// Package search is the pluggable exploration engine behind the Fig. 13
// scheduler: it decouples candidate *generation* (the cross product of
// four tile-size lists, enumerated once and shared across pattern
// kinds, and the value axes given as extents) from candidate
// *evaluation* (a cheap admissible lower bound, filled for all of one
// tiling's candidates at once, plus the exact pricer, both supplied by
// the caller) from the search *strategy*:
//
//   - Exhaustive prices every admitted candidate — the reference,
//     bit-identical to the historical scheduler loop;
//   - Pruned is a branch-and-bound scan: a candidate whose lower bound
//     already exceeds the incumbent's exact energy is skipped without
//     pricing. With an admissible bound it returns the same argmin as
//     Exhaustive, just cheaper;
//   - Beam is the budgeted middle rung of the serving degradation
//     ladder: it bounds every candidate, prices only the K most
//     promising, and may therefore return a worse (but always feasible
//     and deterministic) plan.
//
// Every strategy uses one canonical preference order so equal-energy
// argmins can never silently flip between strategies or refactors:
// lexicographic (energy, kind index, tiling index, point index,
// traversal index, mapping index) — exactly the pattern-major strict-<
// first-wins rule of the historical loop, extended axis by axis so
// single-valued axes change nothing.
//
// Run enumerates the admitted tilings in canonical order and explores
// on the calling goroutine, so its result and its Stats are a function
// of the problem alone. Exhaustive and Pruned walk the admitted list
// from its last entry to its first, largest tiles first (scan.go); ties
// break by canonical index, so the walk moves only the work, never the
// result. The scheduler parallelizes across a network's layers, each
// layer one Run.
package search

import (
	"fmt"

	"rana/internal/pattern"
)

// Strategy selects how the candidate space is explored.
type Strategy string

const (
	// Exhaustive prices every admitted candidate (the reference).
	Exhaustive Strategy = "exhaustive"
	// Pruned is branch-and-bound over the same space: identical argmin,
	// strictly less pricing work.
	Pruned Strategy = "pruned"
	// Beam prices only the BeamWidth candidates with the most promising
	// lower bounds.
	Beam Strategy = "beam"
)

// DefaultStrategy is what the empty Strategy resolves to.
const DefaultStrategy = Pruned

// DefaultBeamWidth is Beam's exact-evaluation budget when none is set.
const DefaultBeamWidth = 64

// Strategies lists the supported strategies in ladder order (most to
// least exploration) — the /v1/catalog listing.
func Strategies() []Strategy { return []Strategy{Exhaustive, Pruned, Beam} }

// Resolve maps the empty strategy onto the default.
func (s Strategy) Resolve() Strategy {
	if s == "" {
		return DefaultStrategy
	}
	return s
}

// Validate reports unknown strategies.
func (s Strategy) Validate() error {
	switch s.Resolve() {
	case Exhaustive, Pruned, Beam:
		return nil
	default:
		return fmt.Errorf("search: unknown strategy %q", string(s))
	}
}

// EffectiveWidth resolves a configured beam width (0 selects the
// default).
func EffectiveWidth(w int) int {
	if w <= 0 {
		return DefaultBeamWidth
	}
	return w
}

// Candidate identifies one (pattern kind, tiling, operating point,
// traversal order, data mapping) cell of the space. KindIdx, TilingIdx,
// PointIdx, TravIdx and MapIdx are the enumeration positions the
// tie-breaking order is defined over.
type Candidate struct {
	Kind      pattern.Kind
	KindIdx   int
	Tiling    pattern.Tiling
	TilingIdx int
	// PointIdx indexes the problem's memory-backend operating points;
	// always 0 when the problem has a single (or no explicit) point.
	PointIdx int
	// TravIdx indexes the problem's traversal orders; always 0 when the
	// problem has a single (or no explicit) order.
	TravIdx int
	// MapIdx indexes the problem's data-mapping policies; always 0 when
	// the problem has a single (or no explicit) policy.
	MapIdx int
}

// Cell projects the candidate onto its value-axis coordinates — the
// triple Bound and Evaluate are addressed with.
func (c Candidate) Cell() Cell {
	return Cell{Point: c.PointIdx, Trav: c.TravIdx, Map: c.MapIdx}
}

// Cell addresses one position on the per-candidate value axes: the
// memory-backend operating point, the traversal order and the
// data-mapping policy. The zero Cell is the historical default (nominal
// point, linear traversal, row-major mapping).
type Cell struct {
	Point int
	Trav  int
	Map   int
}

// Outcome is one candidate priced exactly by the caller's evaluator.
type Outcome[T any] struct {
	// Feasible reports whether the candidate can execute at all;
	// infeasible candidates never become the incumbent.
	Feasible bool
	// Energy is the exact total energy the argmin minimizes.
	Energy float64
	// Value is the caller's payload (the scheduler's LayerPlan).
	Value T
}

// Problem couples one layer's candidate space with its evaluators.
type Problem[T any] struct {
	// Tm, Tn, Tr and Tc are the candidate tile sizes along each axis.
	// The tiling space is their cross product, which Run enumerates
	// exactly once, Tm outermost and Tc innermost, into the admitted
	// list every strategy scans; a tiling's position in that order is
	// its canonical index. An empty list makes the space empty.
	Tm, Tn, Tr, Tc []int
	// Kinds is the pattern exploration space, in option order.
	Kinds []pattern.Kind
	// Admit, when non-nil, prefilters tilings (the core local-storage
	// constraints) before any kind is considered.
	Admit func(pattern.Tiling) bool
	// Points is the memory-backend operating-point axis: each admitted
	// (kind, tiling) pair is considered at every point index in
	// [0, Points). Zero (or negative) means a single implicit point —
	// the historical two-axis space, with identical enumeration and
	// statistics.
	Points int
	// Travs is the traversal-order axis (RTC-style execution
	// reordering): each admitted (kind, tiling, point) cell is
	// considered at every traversal index in [0, Travs). Zero (or
	// negative) means the single implicit linear order.
	Travs int
	// Maps is the data-mapping axis (PENDRAM-style bank/row policy):
	// each cell is considered at every mapping index in [0, Maps). Zero
	// (or negative) means the single implicit row-major policy.
	Maps int
	// Bound fills out with admissible lower bounds on Evaluate's Energy
	// for every candidate of one admitted tiling, in scan order: kind,
	// then operating point, traversal and mapping, so kind index ki at
	// cell c sits at ((ki·points+c.Point)·travs+c.Trav)·maps+c.Map with
	// each extent resolved to at least one, and len(out) is their
	// product. A bound must never exceed the exact value, and must be
	// much cheaper to compute. It should be +Inf at every infeasible
	// candidate (vacuously admissible): Beam then keeps a feasible
	// candidate whenever one exists, and its fallback scan never compares
	// a bound. Nil disables pruning (Pruned degenerates to Exhaustive,
	// Beam keeps arbitrary-but-deterministic candidates). Run calls it
	// only when some candidate of the tiling is compared against its
	// bound, at most once per admitted tiling (a finite bound on an
	// infeasible candidate can make Beam's fallback bound a tiling
	// again), and only on the goroutine that called Run, so it may keep
	// state across calls as long as each call's values depend on its
	// tiling alone.
	Bound func(t pattern.Tiling, out []float64)
	// Evaluate prices one candidate exactly at one value cell, writing
	// the result into *out. Run passes the same scratch Outcome on every
	// call, so on a nil error Evaluate must overwrite every Outcome field
	// rather than assume zeroed input; on an error *out is unspecified
	// and never read. The out-parameter form exists because T is the
	// scheduler's several-hundred-byte LayerPlan, which a by-value return
	// would copy on every exact evaluation; the scheduler's evaluator
	// reads its inputs through pointers for the same reason.
	Evaluate func(k pattern.Kind, t pattern.Tiling, cell Cell, out *Outcome[T]) error
	// Out is the scratch Outcome Run passes to Evaluate. Its address
	// crosses the Evaluate indirection, so Run cannot keep its own on the
	// stack: a caller that owns one keeps steady-state runs
	// allocation-free. Nil makes Run allocate one.
	Out *Outcome[T]
	// Record, when non-nil, receives every feasible candidate Run prices
	// exactly, after the evaluation: the hook the scheduler's
	// retention-parametric memo builds its frontiers through. Exhaustive
	// and Pruned record every feasible candidate they price; Beam records
	// its feasible survivors, or its fallback scan's candidates when no
	// survivor is feasible. Record must not retain out, which Run reuses,
	// and recording never changes what a run explores or returns.
	Record func(c Candidate, out *Outcome[T])
}

// axisExtent resolves one value-axis extent (zero or negative → one).
func axisExtent(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

// points resolves the operating-point axis extent (zero → one).
func (p Problem[T]) points() int { return axisExtent(p.Points) }

// travs resolves the traversal-order axis extent (zero → one).
func (p Problem[T]) travs() int { return axisExtent(p.Travs) }

// maps resolves the data-mapping axis extent (zero → one).
func (p Problem[T]) maps() int { return axisExtent(p.Maps) }

// cells is the candidate count of one admitted tiling: the length of
// the slice Bound fills.
func (p Problem[T]) cells() int { return len(p.Kinds) * p.points() * p.travs() * p.maps() }

// Options tunes one Run.
type Options struct {
	Strategy  Strategy
	BeamWidth int // Beam only; 0 selects DefaultBeamWidth
}

// Stats counts the work one Run performed — the currency the pruning
// and beam budgets are measured in.
type Stats struct {
	// Tilings counts the tilings of the space. The space is enumerated
	// once per Run, never once per pattern kind.
	Tilings int
	// Admitted counts tilings that passed the core constraints.
	Admitted int
	// Candidates counts the candidates considered: (kind, tiling,
	// point, traversal, mapping) cells over the admitted tilings.
	Candidates int
	// Bounded counts candidates compared against their lower bound.
	Bounded int
	// Pruned counts candidates skipped because their bound already
	// exceeded the incumbent.
	Pruned int
	// Evaluated counts exact evaluations — the expensive operation the
	// strategies exist to minimize.
	Evaluated int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Tilings += other.Tilings
	s.Admitted += other.Admitted
	s.Candidates += other.Candidates
	s.Bounded += other.Bounded
	s.Pruned += other.Pruned
	s.Evaluated += other.Evaluated
}

// Result is one Run's outcome.
type Result[T any] struct {
	// Found reports whether any feasible candidate exists.
	Found     bool
	Candidate Candidate
	Outcome   Outcome[T]
	Stats     Stats
}

// Run explores the problem under the options' strategy and returns the
// minimum-energy feasible candidate in the canonical preference order.
func Run[T any](p Problem[T], o Options) (Result[T], error) {
	if err := o.Strategy.Validate(); err != nil {
		return Result[T]{}, err
	}
	var r Result[T]
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	collectAdmitted(&p, sc, &r.Stats)
	if p.Out == nil {
		p.Out = new(Outcome[T])
	}
	var err error
	switch o.Strategy.Resolve() {
	case Exhaustive:
		err = scan(&p, sc, false, &r)
	case Pruned:
		err = scan(&p, sc, true, &r)
	default: // Beam; Validate covered the rest
		err = beam(&p, sc, EffectiveWidth(o.BeamWidth), &r)
	}
	if err != nil {
		return Result[T]{}, err
	}
	return r, nil
}

// prefer reports whether candidate c with energy e beats the incumbent
// (be, bc) in the canonical preference order: lexicographic
// (energy, kind index, tiling index, point index, traversal index,
// mapping index). This is exactly the argmin the historical
// pattern-major loop's strict-< rule kept — the earliest candidate in
// (kind, tiling, point, traversal, mapping) enumeration order among the
// equal-energy minima — so every strategy agrees on ties by
// construction.
func prefer(e float64, c *Candidate, be float64, bc *Candidate) bool {
	return e < be || e == be && canonicalBefore(c, bc)
}

// canonicalBefore reports whether a precedes b in canonical order:
// (kind index, tiling index, point index, traversal index, mapping
// index). The value-axis indices compare last, newest-axis last of all:
// on single-valued axes they never differ, so each historical
// tie-break is preserved bit-for-bit as axes accrete.
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
