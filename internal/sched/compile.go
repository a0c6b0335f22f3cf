package sched

// The zero-allocation compile path. ExploreNetworkInto is
// ExploreNetworkContext writing into a caller-owned Plan, with every
// piece of per-compile scratch leased from sync.Pools:
//
//   - a compileState arena holds the per-layer stats/err/key slices,
//     the in-compile dedup's shape table and representative indices,
//     the frontiers the memo's peek found, the miss work list and the
//     frontier queries' operating-point scratch;
//   - an exploreState arena (one per exploring goroutine) holds the
//     candidate axis scratch, the streaming tiling space, the pooled
//     bound evaluator, the backend point/table scratch, the frontier
//     build's record buffers and sort and sweep scratch, and the search
//     closures, all created once and re-pointed per layer.
//
// Ownership: a leased arena belongs to exactly one compile (one
// goroutine for exploreState) from Get to Put; nothing borrowed from an
// arena may outlive the compile. Layer plans are written in place into
// the caller's Plan, which the compileState arena references only until
// the compile returns; search results are *copied* into them, never
// aliased. The AllocsPerRun gates in alloc_test.go pin the steady
// states this buys: a warm-memo compile, the steady-state explore loop
// and a saturated-memo compile all run allocation-free.

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// compileEnv is the per-compile exploration environment resolved once
// from the options: the parsed traversal and mapping axes, and the
// caller's prefix memo when incremental pricing should read through one.
type compileEnv struct {
	travs  []pattern.Traversal
	maps   []MappingPolicy
	prefix *PrefixMemo
}

// The shared default axes the empty specs resolve to. Read-only by
// contract: env consumers only ever index them.
var (
	defaultTraversalAxis = []pattern.Traversal{pattern.Linear}
	defaultMappingAxis   = []MappingPolicy{RowMajorMapping}
)

// envFor resolves the options' traversal and mapping axes once per
// compile, through the spec memos: a spec the request's earlier steps
// already parsed costs a lookup. Both parsers put the default at index
// 0, so a default-only axis reproduces the historical candidate stream;
// the empty specs resolve to shared singleton axes without a lookup.
func envFor(opts Options) (compileEnv, error) {
	env := compileEnv{travs: defaultTraversalAxis, maps: defaultMappingAxis}
	if opts.Traversal != "" {
		p, err := traversalSpecs.get(opts.Traversal)
		if err != nil {
			return env, err
		}
		env.travs = p.axis
	}
	if opts.Mapping != "" {
		p, err := mappingSpecs.get(opts.Mapping)
		if err != nil {
			return env, err
		}
		env.maps = p.axis
	}
	return env, nil
}

// exploreState is one exploring goroutine's reusable scratch arena. The
// four search closures are created once per state and read the current
// layer through the state fields, so re-pointing the state at a new
// layer costs no closure allocations.
type exploreState struct {
	l    models.ConvLayer
	e    models.ConvLayer
	cfg  hw.Config
	opts Options
	env  compileEnv
	bk   mem.Backend

	points   []mem.OperatingPoint
	ptTables []energy.Table
	tables   []energy.Table
	axes     []int
	fixed    [1]pattern.Tiling
	product  search.Product
	slice    search.Slice
	b        bound

	admit     func(pattern.Tiling) bool
	boundFn   func(pattern.Kind, pattern.Tiling, search.Cell) float64
	newPricer func() search.Pricer
	evaluate  func(pattern.Kind, pattern.Tiling, search.Cell, *search.Outcome[LayerPlan]) error

	// recording makes the exploration collect its feasible candidates
	// into build — set only by buildFrontier, for a shared memo that
	// will store the frontier.
	recording   bool
	build       frontierBuild
	newRecorder func() search.Recorder[LayerPlan]
}

func newExploreState() *exploreState {
	s := &exploreState{}
	s.admit = func(t pattern.Tiling) bool {
		// Tiling.FitsCore's three core limits on the effective layer,
		// read in place: its value parameters copy the layer and the
		// configuration once per scanned tiling.
		e, cfg := &s.e, &s.cfg
		th, tl := (t.Tr-1)*e.S+e.K, (t.Tc-1)*e.S+e.K
		return t.Tn*th*tl <= cfg.LocalInput &&
			t.Tm*t.Tr*t.Tc <= cfg.LocalOutput &&
			t.Tm*t.Tn*e.K*e.K <= cfg.LocalWeight
	}
	s.boundFn = s.b.lower
	s.newPricer = func() search.Pricer { return acquirePricer(&s.b, s.env.prefix) }
	s.newRecorder = s.build.recorder
	s.evaluate = func(k pattern.Kind, t pattern.Tiling, cell search.Cell, out *search.Outcome[LayerPlan]) error {
		if err := evaluateCellInto(&out.Value, &s.l, k, t, &s.cfg, &s.opts, s.bk,
			&s.points[cell.Point], s.env.travs[cell.Trav], s.env.maps[cell.Map]); err != nil {
			return err
		}
		out.Feasible = out.Value.Analysis.Feasible
		out.Energy = out.Value.Energy.Total()
		return nil
	}
	return s
}

var exploreStatePool = sync.Pool{New: func() any { return newExploreState() }}

// outcomePool backs the search engine's per-goroutine scratch Outcome
// (Problem.NewOutcome): the scratch crosses the Evaluate indirection,
// so the engine cannot keep it on the stack, and pooling the buffer is
// what keeps the per-scan lease off the steady-state allocation count.
var outcomePool = sync.Pool{New: func() any { return new(search.Outcome[LayerPlan]) }}

func getOutcome() *search.Outcome[LayerPlan]  { return outcomePool.Get().(*search.Outcome[LayerPlan]) }
func putOutcome(o *search.Outcome[LayerPlan]) { outcomePool.Put(o) }

// release drops the per-layer references (so a pooled state cannot
// pin a network's layers or a caller's options alive) and returns the
// state; the scratch slices keep their capacity.
func (s *exploreState) release() {
	s.l, s.e = models.ConvLayer{}, models.ConvLayer{}
	s.opts = Options{}
	s.env = compileEnv{}
	s.bk = nil
	s.recording = false
	s.build.reset()
	exploreStatePool.Put(s)
}

// exploreLayerEnv runs one layer's exploration against a resolved
// compile environment, leasing the goroutine's scratch arena from the
// pool. This is the single exploration path: ExploreLayer resolves a
// standalone environment and lands here.
func exploreLayerEnv(l models.ConvLayer, cfg hw.Config, opts Options, env compileEnv) (LayerPlan, search.Stats, error) {
	s := exploreStatePool.Get().(*exploreState)
	defer s.release()
	return s.explore(l, cfg, opts, env)
}

// buildFrontier is exploreLayerEnv recording the exploration's feasible
// candidates and sweeping them into the layer's interval envelope from
// the options' interval on. A frontier whose answer cannot depend on
// the interval — no refresh is priced, or the natural-tiling baseline —
// is valid at every interval.
func buildFrontier(l models.ConvLayer, cfg hw.Config, opts Options, env compileEnv) (LayerPlan, search.Stats, frontier, error) {
	s := exploreStatePool.Get().(*exploreState)
	defer s.release()
	s.recording = true
	lp, stats, err := s.explore(l, cfg, opts, env)
	if err != nil {
		return lp, stats, frontier{}, err
	}
	lo := opts.RefreshInterval
	if opts.NaturalTiling || opts.Controller == nil || !s.bk.Refreshes() {
		lo = alwaysValid
	}
	f := s.build.finish(lp.Energy.Total(), lo)
	return lp, stats, s.build.envelope(f, &opts, s.points, env.maps, hw.BankCount(cfg.BufferWords, cfg.BankWords), cfg.BankWords), nil
}

func (s *exploreState) explore(l models.ConvLayer, cfg hw.Config, opts Options, env compileEnv) (LayerPlan, search.Stats, error) {
	var err error
	s.bk, s.points, err = appendBackendPoints(s.points[:0], cfg, opts, opts.layerBudget(l.Name), l.Name)
	if err != nil {
		return LayerPlan{}, search.Stats{}, err
	}
	s.e = effectiveLayer(l)
	if s.recording && !s.build.admits(&s.e, &opts, len(s.points), &env, hw.BankCount(cfg.BufferWords, cfg.BankWords)) {
		s.recording = false
	}
	if opts.NaturalTiling {
		lp, stats, err := naturalSchedule(l, cfg, opts, s.bk, s.points[0])
		if err == nil && s.recording {
			s.build.natural(&lp, opts.Patterns)
		}
		return lp, stats, err
	}
	s.l, s.cfg, s.opts, s.env = l, cfg, opts, env
	var space search.Space
	if opts.FixedTiling != nil {
		s.fixed[0] = *opts.FixedTiling
		s.slice.Init(s.fixed[:])
		space = &s.slice
	} else {
		// All four axes share one scratch slice; the boundaries are
		// recorded first and sub-sliced only after the final append, so
		// growth reallocations cannot leave a stale sub-slice behind.
		a := search.AppendAxis(s.axes[:0], s.e.M, cfg.ArrayM)
		m1 := len(a)
		a = search.AppendAxis(a, s.e.N, cfg.ArrayN)
		n1 := len(a)
		a = search.AppendAxis(a, s.e.R(), cfg.ArrayM)
		r1 := len(a)
		a = search.AppendAxis(a, s.e.C(), cfg.ArrayN)
		s.axes = a
		s.product.Init(a[:m1], a[m1:n1], a[n1:r1], a[r1:])
		space = &s.product
	}
	s.ptTables = appendPointTables(s.ptTables[:0], s.points)
	s.tables = appendMappingTables(s.tables[:0], s.ptTables, env.maps)
	s.b.init(l, cfg, s.tables, len(s.points), env.travs)
	prob := search.Problem[LayerPlan]{
		Space:       space,
		Kinds:       opts.Patterns,
		Admit:       s.admit,
		Points:      len(s.points),
		Travs:       len(env.travs),
		Maps:        len(env.maps),
		Bound:       s.boundFn,
		Evaluate:    s.evaluate,
		NewOutcome:  getOutcome,
		FreeOutcome: putOutcome,
	}
	if !opts.DisableIncremental {
		prob.NewPricer = s.newPricer
	}
	if s.recording {
		prob.NewRecorder = s.newRecorder
	}
	r, err := search.Run(prob, search.Options{Strategy: opts.Search, BeamWidth: opts.BeamWidth, Parallelism: opts.Parallelism})
	if err != nil {
		return LayerPlan{}, r.Stats, err
	}
	if !r.Found {
		return LayerPlan{}, r.Stats, fmt.Errorf("no feasible tiling for layer %q", l.Name)
	}
	return r.Outcome.Value, r.Stats, nil
}

// compileState is one compile's arena: the per-layer slices, the
// in-compile dedup's shape table, the miss work list and the frontier
// queries' operating-point scratch. reps[i] is the earlier layer whose
// plan layer i repeats (the in-compile dedup), or -1 when layer i is
// served or explored itself; fronts[i] is the memo frontier the peek
// pass found for layer i, nil when it found none.
type compileState struct {
	plans  []LayerPlan
	stats  []search.Stats
	hits   []bool
	keys   []memoKey
	reps   []int
	errs   []error
	fronts []*frontier
	shapes shapeTable
	miss   []int
	points []mem.OperatingPoint
}

var compileStatePool = sync.Pool{New: func() any { return new(compileState) }}

// release drops the arena's references to the caller's layer plans and
// to the memo's frontiers, and returns it to the pool.
func (cs *compileState) release() {
	cs.plans = nil
	clear(cs.fronts)
	compileStatePool.Put(cs)
}

// grow points the arena at the layer plans the compile writes in place,
// the caller's, and sizes the other per-layer slices to their count,
// clearing reused storage.
func (cs *compileState) grow(plans []LayerPlan) {
	n := len(plans)
	cs.plans = plans
	clear(cs.plans)
	if cap(cs.stats) < n {
		cs.stats = make([]search.Stats, n)
		cs.hits = make([]bool, n)
		cs.keys = make([]memoKey, n)
		cs.reps = make([]int, n)
		cs.errs = make([]error, n)
		cs.fronts = make([]*frontier, n)
	}
	cs.stats = cs.stats[:n]
	clear(cs.stats)
	cs.hits = cs.hits[:n]
	clear(cs.hits)
	cs.keys = cs.keys[:n]
	cs.reps = cs.reps[:n]
	for i := range cs.reps {
		cs.reps[i] = -1
	}
	cs.errs = cs.errs[:n]
	clear(cs.errs)
	cs.fronts = cs.fronts[:n] // release left them nil
	cs.miss = cs.miss[:0]
}

// shapeTable is the in-compile dedup's open-addressed hash table over
// one compile's layer shapes, probed linearly. A slot holds the index
// plus one of the first layer with its shape; zero marks it empty. It
// lives in the compile arena, so a probe allocates nothing once the
// arena has grown to the network.
type shapeTable struct {
	slots []int32
}

// reset empties the table and sizes it to size slots: a power of two
// above the number of shapes it will hold, so a probe always reaches an
// empty slot.
func (t *shapeTable) reset(size int) {
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	}
	t.slots = t.slots[:size]
	clear(t.slots)
}

// firstOf returns the earlier layer whose shape equals layer i's, or
// records layer i as its shape's first and returns -1. keys holds the
// layers' memo keys; every key of one compile shares its frame, so only
// the shapes are compared.
func (t *shapeTable) firstOf(keys []memoKey, i int) int {
	mask := uint64(len(t.slots) - 1)
	for h := keys[i].shape.hash() & mask; ; h = (h + 1) & mask {
		j := t.slots[h]
		if j == 0 {
			t.slots[h] = int32(i + 1)
			return -1
		}
		if keys[j-1].shape == keys[i].shape {
			return int(j - 1)
		}
	}
}

// shapeSlots is the shape table size for n layers: the power of two at
// or above 2n, so the table is at most half full.
func shapeSlots(n int) int { return 1 << bits.Len(uint(2*n-1)) }

// serve answers layer i from f, the memo frontier the peek pass found
// covering the options' interval — the warm path. bk and pts are the
// compile's backend and operating points; a nil bk resolves layer i's
// own, under its per-layer budget. The layer's error is the query's,
// and a panic is recovered into one, as on the exploring path.
func (cs *compileState) serve(i int, f *frontier, l *models.ConvLayer, cfg *hw.Config, opts *Options, env *compileEnv,
	bk mem.Backend, pts []mem.OperatingPoint) {
	cs.hits[i] = true
	defer cs.recoverLayer(i)
	if bk == nil {
		var err error
		if bk, cs.points, err = appendBackendPoints(cs.points[:0], *cfg, *opts, opts.layerBudget(l.Name), l.Name); err != nil {
			cs.errs[i] = err
			return
		}
		pts = cs.points
	}
	cs.errs[i] = f.query(&cs.plans[i], l, cfg, opts, env, bk, pts)
}

// fillRepeats copies each repeated layer's plan from the layer it
// repeats, patching in its own identity exactly as a memo hit does,
// and returns how many layers it filled.
func (cs *compileState) fillRepeats(net models.Network) int {
	n := 0
	for i, j := range cs.reps {
		if j < 0 {
			continue
		}
		cs.plans[i] = cs.plans[j]
		cs.plans[i].Analysis.Layer = net.Layers[i]
		cs.hits[i] = true
		n++
	}
	return n
}

// runLayer explores one layer (through the memo when present — a nil
// memo explores directly) into the arena's slot i, converting panics
// into structured per-layer errors so long-lived callers (ranad)
// survive poisoned inputs.
func (cs *compileState) runLayer(i int, l models.ConvLayer, cfg hw.Config, opts Options, memo *Memo, env compileEnv) {
	defer cs.recoverLayer(i)
	cs.plans[i], cs.stats[i], cs.hits[i], cs.errs[i] = memo.exploreEnv(cs.keys[i], l, cfg, opts, env)
}

// drainParallel fans the miss list across a bounded worker pool sharing
// an atomic cursor. Workers claim indices until the list is exhausted or
// the context cancels; the canceled claim records ctx.Err() on its layer
// so the caller's error sweep reports how far the schedule got.
func (cs *compileState) drainParallel(ctx context.Context, net models.Network, cfg hw.Config,
	opts Options, memo *Memo, env compileEnv, workers int) {
	var wg sync.WaitGroup
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(cursor.Add(1)) - 1
				if idx >= len(cs.miss) {
					return
				}
				i := cs.miss[idx]
				if err := ctx.Err(); err != nil {
					cs.errs[i] = err
					return
				}
				cs.runLayer(i, net.Layers[i], cfg, opts, memo, env)
			}
		}()
	}
	wg.Wait()
}

func (cs *compileState) recoverLayer(i int) {
	if r := recover(); r != nil {
		cs.errs[i] = Recovered(r)
	}
}

// ExploreNetworkInto is ExploreNetworkContext writing the schedule into
// a caller-owned Plan (whose Layers slice is reused when its capacity
// allows) instead of allocating a fresh one — the steady-state entry
// point for callers compiling in a loop. p's previous contents are
// fully overwritten; on error p is left in an unspecified state.
//
// The compile runs in two phases: a sequential peek pass marks every
// layer whose shape repeats an earlier layer of the same compile and
// answers every other layer whose shape the shared memo holds a
// frontier for at the options' refresh interval (the warm path — no
// goroutines, no closures, no allocations), then only the first
// remaining layer of each shape drains through a bounded worker
// pool (inline on this goroutine when one worker suffices, which keeps
// the single-threaded explore loop allocation-free too). The repeats
// are filled from their representative afterwards — the in-compile
// dedup, which needs no memo table and so holds whether the shared
// memo is absent, warm or saturated.
func ExploreNetworkInto(ctx context.Context, net models.Network, cfg hw.Config, opts Options, p *Plan) (NetworkStats, error) {
	var ns NetworkStats
	if err := net.Validate(); err != nil {
		return ns, err
	}
	if err := cfg.Validate(); err != nil {
		return ns, err
	}
	if err := opts.Validate(); err != nil {
		return ns, err
	}
	env, err := envFor(opts)
	if err != nil {
		return ns, err
	}
	// Incremental pricing reads bound prefix sums through the caller's
	// prefix memo when one is set, and computes them in each pricing
	// context otherwise. The stateless bound never looks them up.
	if !opts.DisableIncremental {
		env.prefix = opts.Prefix
	}
	// Default-on in-compile dedup: repeated shapes inside one network
	// (ResNet bottlenecks, inception branches) explore once. Shared
	// cross-compile memos are opt-in via Options.Memo.
	memo, dedup := opts.Memo, !opts.DisableMemo
	// Every layer's plan is written straight into the caller's plan, so a
	// served layer's plan is never copied.
	n := len(net.Layers)
	p.Layers = slices.Grow(p.Layers[:0], n)[:n]
	cs := compileStatePool.Get().(*compileState)
	defer cs.release()
	cs.grow(p.Layers)
	var prefixBase PrefixStats
	if env.prefix != nil {
		prefixBase = env.prefix.Stats()
	}

	// Phase 1: the peek pass. Keys are built once and kept for the miss
	// drain; a layer whose shape repeats an earlier layer's waits for
	// that one's result. Then one hold of the memo's lock finds the
	// frontiers that cover the options' interval, and those answer their
	// layers inline, priced at operating points resolved once for the
	// compile unless per-layer budgets make them differ by layer.
	if memo != nil || dedup {
		frame := frameDigest(cfg, opts)
		if dedup {
			cs.shapes.reset(shapeSlots(n))
		}
		for i := range net.Layers {
			cs.keys[i] = layerKey(&frame, &net.Layers[i], &opts)
			if dedup {
				cs.reps[i] = cs.shapes.firstOf(cs.keys, i)
			}
		}
		var bk mem.Backend
		var pts []mem.OperatingPoint
		if memo.peek(cs.keys, cs.reps, opts.RefreshInterval, cs.fronts) && len(opts.LayerBudgets) == 0 {
			// An error leaves bk nil, and each served layer resolves its
			// own, reporting the error as it always has.
			bk, cs.points, _ = appendBackendPoints(cs.points[:0], cfg, opts, opts.effectiveErrorBudget(), "")
			pts = cs.points
		}
		for i, f := range cs.fronts {
			switch {
			case cs.reps[i] >= 0:
				// Filled from its representative after the drain.
			case f != nil:
				cs.serve(i, f, &net.Layers[i], &cfg, &opts, &env, bk, pts)
			default:
				cs.miss = append(cs.miss, i)
			}
		}
	} else {
		for i := range net.Layers {
			cs.miss = append(cs.miss, i)
		}
	}

	// Phase 2: drain the misses, one layer per distinct shape. Layers
	// are independent optimization problems (Fig. 13 schedules them one
	// by one); a canceled context stops admitting work, already-claimed
	// layers finish (one layer's exploration is short), and the error
	// reports how far the schedule got. A repeat records no error of its
	// own: its representative comes earlier in layer order, so a failed
	// representative is what the error sweep below reports.
	if workers := min(runtime.GOMAXPROCS(0), len(cs.miss)); workers <= 1 {
		for _, i := range cs.miss {
			if err := ctx.Err(); err != nil {
				cs.errs[i] = err
				break
			}
			cs.runLayer(i, net.Layers[i], cfg, opts, memo, env)
		}
	} else {
		// Kept out of line so the worker closure's captures only escape
		// to the heap when the parallel path actually runs — the
		// sequential path above stays allocation-free.
		cs.drainParallel(ctx, net, cfg, opts, memo, env, workers)
	}
	for i, err := range cs.errs {
		if err != nil {
			if ctx.Err() != nil && err == ctx.Err() {
				return ns, fmt.Errorf("sched: %s: canceled at layer %d/%d (%s): %w",
					net.Name, i+1, n, net.Layers[i].Name, err)
			}
			return ns, fmt.Errorf("sched: %s/%s: %w", net.Name, net.Layers[i].Name, err)
		}
	}

	// The repeats count as hits, in the compile's stats below and in
	// the shared memo's counters, like any other layer served without
	// exploring.
	if filled := cs.fillRepeats(net); filled > 0 && memo != nil {
		memo.countHits(filled)
	}

	// Assembly: aggregate the caller's plan in layer order.
	p.Network, p.Config, p.Options = net, cfg, opts
	p.Totals = energy.Counts{}
	p.Energy = energy.Breakdown{}
	p.ExecTime = 0
	for i := range p.Layers {
		lp := &p.Layers[i]
		p.Totals.Add(lp.Counts)
		p.Energy.Add(lp.Energy)
		p.ExecTime += lp.Analysis.ExecTime
		if cs.hits[i] {
			ns.MemoHits++
		} else {
			// With neither a memo nor the dedup there are no misses to
			// report — only the search work itself.
			if memo != nil || dedup {
				ns.MemoMisses++
			}
			ns.Search.Add(cs.stats[i])
		}
	}
	if env.prefix != nil {
		st := env.prefix.Stats()
		ns.PrefixHits = st.Hits - prefixBase.Hits
		ns.PrefixMisses = st.Misses - prefixBase.Misses
	}
	if opts.Check != nil {
		if err := opts.Check(p); err != nil {
			return ns, fmt.Errorf("sched: plan check: %w", err)
		}
	}
	return ns, nil
}
