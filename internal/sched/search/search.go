// Package search is the pluggable exploration engine behind the Fig. 13
// scheduler: it decouples candidate *generation* (the cross product of
// four tile-size lists, enumerated once and shared across pattern
// kinds, and the value axes given as extents) from candidate
// *evaluation* (a cheap admissible lower bound plus the exact pricer,
// both supplied by the caller) from the search *strategy*:
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
// Every strategy also runs at any parallelism level with byte-identical
// results: Exhaustive and Pruned share one candidate loop (scan.go) that
// one worker runs inline and Options.Parallelism workers run on a pool,
// sharing the incumbent's exact energy through an atomic bound; the
// reduction re-applies the canonical preference order, so plans never
// move with the worker count.
package search

import (
	"fmt"
	"runtime"

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

// MaxParallelism caps the worker pool one Run may fan out. The cap
// bounds goroutine count against hostile or mistaken configuration;
// beyond the machine's core count extra workers only add contention.
const MaxParallelism = 256

// EffectiveParallelism resolves a configured parallelism level: zero (or
// negative) selects GOMAXPROCS, and every level is capped at
// MaxParallelism. The result is the worker bound, not a promise — a Run
// never spawns more workers than it has tilings to scan.
func EffectiveParallelism(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > MaxParallelism {
		p = MaxParallelism
	}
	return p
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

// Pricer is a stateful per-goroutine bound evaluator: an incremental
// pricing context that caches per-axis partial terms across the
// candidates one scan goroutine scans, invalidating only what the
// changed coordinate touches. Lower must return *exactly* the value the
// problem's stateless Bound would return for the same candidate — bit
// for bit, at any call order — so pruning decisions (and therefore
// plans and work accounting) cannot depend on whether the incremental
// or the stateless evaluator ran. Release hands the context back to its
// owner's pool; the strategy calls it when the goroutine's scan ends
// and never touches the pricer again.
type Pricer interface {
	Lower(k pattern.Kind, t pattern.Tiling, cell Cell) float64
	Release()
}

// Recorder receives every feasible candidate one scan goroutine prices
// exactly: the hook the scheduler's retention-parametric memo builds its
// frontiers through. Record runs on the scanning goroutine, after the
// exact evaluation, with the candidate and its outcome; it must not
// retain out, which the engine reuses. Release runs once, when that
// goroutine's scan ends. The engine never shares a Recorder across
// goroutines, so an implementation needs no lock on the Record path.
type Recorder[T any] interface {
	Record(c Candidate, out *Outcome[T])
	Release()
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
	// Bound returns an admissible lower bound on Evaluate's Energy for
	// the candidate at one value cell: it must never exceed the exact
	// value, and must be much cheaper to compute. Nil disables pruning
	// (Pruned degenerates to Exhaustive, Beam keeps
	// arbitrary-but-deterministic candidates).
	Bound func(k pattern.Kind, t pattern.Tiling, cell Cell) float64
	// NewPricer, when non-nil, supplies a fresh incremental bound
	// evaluator per scan goroutine, used in Bound's place wherever a
	// bound is computed. Lower must be bit-identical to Bound (see
	// Pricer); Bound stays the pruning gate and the stateless reference,
	// so NewPricer without Bound is ignored.
	NewPricer func() Pricer
	// Evaluate prices one candidate exactly at one value cell, writing
	// the result into *out. The engine reuses one scratch Outcome per
	// scan goroutine, so on a nil error Evaluate must overwrite every
	// Outcome field rather than assume zeroed input; on an error *out is
	// unspecified and never read. The out-parameter form exists because
	// T is the scheduler's several-hundred-byte LayerPlan, which a
	// by-value return would copy on every exact evaluation; the
	// scheduler's evaluator reads its inputs through pointers for the
	// same reason.
	Evaluate func(k pattern.Kind, t pattern.Tiling, cell Cell, out *Outcome[T]) error
	// NewOutcome / FreeOutcome, when non-nil, lease the per-goroutine
	// scratch Outcome the engine passes to Evaluate. The engine cannot
	// stack-allocate that scratch — its address crosses the Evaluate
	// indirection, so escape analysis heap-allocates it once per scan —
	// and a caller-pooled buffer is what keeps steady-state compiles
	// allocation-free. Nil falls back to a plain allocation per scan
	// goroutine. FreeOutcome is called exactly once per NewOutcome
	// lease, after the goroutine's last read of the buffer.
	NewOutcome  func() *Outcome[T]
	FreeOutcome func(*Outcome[T])
	// NewRecorder, when non-nil, supplies a fresh Recorder per scan
	// goroutine. Exhaustive and Pruned record every feasible candidate
	// they price; Beam records its feasible survivors, or its fallback
	// scan's candidates when no survivor is feasible. Recording never
	// changes what a run explores or returns.
	NewRecorder func() Recorder[T]
}

// axisExtent resolves one value-axis extent (zero or negative → one).
func axisExtent(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

// newOutcome leases one scan goroutine's scratch Outcome (see
// NewOutcome); freeOutcome returns it.
func (p Problem[T]) newOutcome() *Outcome[T] {
	if p.NewOutcome != nil {
		return p.NewOutcome()
	}
	return new(Outcome[T])
}

func (p Problem[T]) freeOutcome(o *Outcome[T]) {
	if p.FreeOutcome != nil {
		p.FreeOutcome(o)
	}
}

// newRecorder leases one scan goroutine's Recorder, or nil when the
// problem records nothing.
func (p Problem[T]) newRecorder() Recorder[T] {
	if p.NewRecorder == nil {
		return nil
	}
	return p.NewRecorder()
}

// points resolves the operating-point axis extent (zero → one).
func (p Problem[T]) points() int { return axisExtent(p.Points) }

// travs resolves the traversal-order axis extent (zero → one).
func (p Problem[T]) travs() int { return axisExtent(p.Travs) }

// maps resolves the data-mapping axis extent (zero → one).
func (p Problem[T]) maps() int { return axisExtent(p.Maps) }

// Options tunes one Run.
type Options struct {
	Strategy  Strategy
	BeamWidth int // Beam only; 0 selects DefaultBeamWidth
	// Parallelism bounds the worker goroutines one Run fans out across
	// the candidate space. Zero selects GOMAXPROCS; 1 runs the same loop
	// inline. Results are byte-identical at every level (see scan.go for
	// the argument); only Stats work attribution (Bounded/Pruned/Evaluated
	// splits) may shift, since how much pruning the shared bound achieves
	// depends on timing.
	Parallelism int
}

// Stats counts the work one Run performed — the currency the pruning
// and beam budgets are measured in.
type Stats struct {
	// Tilings counts the tilings of the space. The space is enumerated
	// once per Run, never once per pattern kind.
	Tilings int
	// Admitted counts tilings that passed the core constraints.
	Admitted int
	// Candidates counts (kind, tiling) pairs considered.
	Candidates int
	// Bounded counts lower-bound computations.
	Bounded int
	// Pruned counts candidates skipped because their bound already
	// exceeded the incumbent.
	Pruned int
	// Evaluated counts exact evaluations — the expensive operation the
	// strategies exist to minimize.
	Evaluated int
	// Workers is the worker-pool size the run actually used (1 when the
	// loop ran inline). Aggregation keeps the maximum, not a sum.
	Workers int
}

// Add accumulates other into s: counters sum, Workers keeps the max.
func (s *Stats) Add(other Stats) {
	s.Tilings += other.Tilings
	s.Admitted += other.Admitted
	s.Candidates += other.Candidates
	s.Bounded += other.Bounded
	s.Pruned += other.Pruned
	s.Evaluated += other.Evaluated
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
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
	r := Result[T]{Stats: Stats{Workers: 1}}
	buf := admittedPool.Get().(*[]tilingAt)
	defer admittedPool.Put(buf)
	admitted := collectAdmitted(p, buf, &r.Stats)
	workers := EffectiveParallelism(o.Parallelism)
	var err error
	switch o.Strategy.Resolve() {
	case Exhaustive:
		err = scan(p, admitted, false, workers, &r)
	case Pruned:
		err = scan(p, admitted, true, workers, &r)
	default: // Beam; Validate covered the rest
		err = beam(p, admitted, EffectiveWidth(o.BeamWidth), workers, &r)
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
// equal-energy minima — so every strategy and worker count agrees on
// ties by construction.
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
