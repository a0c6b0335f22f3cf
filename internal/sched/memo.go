package sched

// Layer-shape memoization, parametric in the refresh interval. Real
// networks repeat identical layer shapes — ResNet-50's bottleneck
// blocks and GoogLeNet's inception branches reuse a handful of shapes
// dozens of times — and the Fig. 13 exploration depends only on (layer
// shape, accelerator config, scheduling options), never on the layer's
// name or position. Every compile dedups its own repeated shapes on
// that triple without any table (compile.go); a shared Memo keys
// completed per-layer explorations on it so each distinct shape is
// explored once per process — once for every refresh interval, not
// once per interval.
//
// The interval enters a candidate's exact energy E(c, T) only through
// the refresh term (refreshAt), which never increases with T, and the
// refresh-free energy E0(c) is a lower bound at every T (DESIGN §11).
// So the memo keys on the options minus the interval, and its one value
// type is a frontier: the candidates an exploration at T_lo priced with
// E0 ≤ U, U the winner's exact energy at T_lo, minus the ones another
// record beats at every interval. Any candidate that can win at some
// T ≥ T_lo has E0 ≤ E(c, T) ≤ U and is in it. A query re-prices the
// records at its own interval in (E0, canonical) order, stops at the
// first record whose E0 exceeds the best exact energy so far, and runs
// the exact evaluator (evaluateCellInto) once on the winner, so a
// served plan comes from the same pricing path as an explored one and
// carries the requesting layer's identity. A request below T_lo
// rebuilds the frontier at its own interval.
//
// Errors are never cached: their messages embed layer names, and a
// transient failure must not poison every same-shaped layer.

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// DefaultMemoCapacity bounds the frontier records a Memo holds when
// NewMemo is given no explicit capacity. A record takes 104 bytes, so a
// full default memo holds about 2.1 MB. The zoo's 81 distinct shapes
// need 20,221 records for the default space and the RTC × all-mappings
// space together at the conventional 45 µs interval; longer intervals
// need fewer.
const DefaultMemoCapacity = 20480

// memoKey identifies one exploration problem: the SHA-256 digest of the
// canonical (layer shape, derived output geometry, config, options
// signature, resolved layer budget) tuple. A digest rather than the
// struct itself because the struct form exceeds the runtime's 128-byte
// inline-key limit, and an indirect map key heap-copies on every insert
// — one allocation per distinct shape per compile, which is exactly
// what the pooled compile path exists to avoid. 32 bytes store inline,
// and a SHA-256 collision between two real scheduling problems is not a
// realistic failure mode.
//
// The keyed tuple is deliberately as coarse as soundness allows and no
// coarser. Exploration reads the padding only through the derived
// R()/C(), so distinct (P) spellings with identical derived geometry
// share an entry (r/c carry the information P held). Coarsening over M
// — the axis GoogLeNet's near-duplicate inception branches actually
// differ in — is NOT sound: M reaches the plan through the Tm candidate
// axis, ceil(M/Tm), the weight/output volumes and the MAC count, so two
// branches differing only in M pick genuinely different plans and a
// shared frontier would answer one with the other's candidates
// (TestMemoNearDuplicateShapesStayDistinct pins this boundary; the
// sound way to profit from those branches is the bound-level PrefixMemo
// in prefix.go).
type memoKey [sha256.Size]byte

// record is one feasible candidate of a frontier: everything its exact
// energy depends on at any refresh interval, and nothing that depends on
// one. The canonical cell indices (pattern kind, tiling, operating
// point, traversal, mapping) and the tiling re-address the candidate;
// the three non-refresh counts that vary with it (the MAC count is the
// layer's, held once per frontier), the execution time, the three data
// lifetimes and the three bank counts are the refresh term's inputs;
// e0 is the exact energy at zero refresh words. 104 bytes.
type record struct {
	e0                    float64
	buf, ddr, writes      uint64
	exec                  time.Duration
	lt                    pattern.Lifetimes
	banks                 [3]int32
	tiling                [4]int32
	ti                    int32
	kind, point, trav, mp uint16
}

// before reports whether a precedes b in the canonical enumeration order
// (kind, tiling, point, traversal, mapping) every strategy breaks energy
// ties by.
func (a *record) before(b *record) bool {
	switch {
	case a.kind != b.kind:
		return a.kind < b.kind
	case a.ti != b.ti:
		return a.ti < b.ti
	case a.point != b.point:
		return a.point < b.point
	case a.trav != b.trav:
		return a.trav < b.trav
	}
	return a.mp < b.mp
}

// dominates reports whether a may drop b from a frontier: same operating
// point and mapping (so one pricing table and one retention scale),
// a ≤ b on every count, the execution time, every lifetime and every
// bank count, and a canonically first. Then at every interval a needs a
// subset of b's refresh flags over no more banks for no more pulses
// (the memctrl.Controller contract), so each Eq. 14 term of a is ≤ b's
// and, the sum being monotone in each addend, E(a, T) ≤ E(b, T): b can
// neither win nor win a tie.
//
// The refresh inputs compare first: records meet in E0 order, so a
// candidate dominator usually has the smaller counts already.
func (a *record) dominates(b *record) bool {
	return a.point == b.point && a.mp == b.mp &&
		a.exec <= b.exec &&
		a.lt.Input <= b.lt.Input && a.lt.Output <= b.lt.Output && a.lt.Weight <= b.lt.Weight &&
		a.banks[0] <= b.banks[0] && a.banks[1] <= b.banks[1] && a.banks[2] <= b.banks[2] &&
		a.buf <= b.buf && a.ddr <= b.ddr && a.writes <= b.writes &&
		a.before(b)
}

// byE0 is the frontier order: refresh-free energy, then canonical order.
// It compares through pointers: a record is too large to copy per
// comparison.
func byE0(a, b *record) int {
	if c := cmp.Compare(a.e0, b.e0); c != 0 {
		return c
	}
	if a.before(b) {
		return -1
	}
	if b.before(a) {
		return 1
	}
	return 0
}

// cellRecord is a record pointer keyed by its (operating point, mapping)
// cell, the only records it can dominate or be dominated by, with its
// E0 alongside so most comparisons never load the record.
type cellRecord struct {
	cell uint32
	e0   float64
	r    *record
}

// byCellE0 orders records by cell, then in frontier order.
func byCellE0(a, b cellRecord) int {
	switch {
	case a.cell < b.cell, a.cell == b.cell && a.e0 < b.e0:
		return -1
	case a.cell > b.cell, a.e0 > b.e0:
		return 1
	}
	return byE0(a.r, b.r)
}

// alloc is the record's bank allocation.
func (r *record) alloc() memctrl.Allocation {
	return memctrl.Allocation{InputBanks: int(r.banks[0]), OutputBanks: int(r.banks[1]), WeightBanks: int(r.banks[2])}
}

// tilingOf is the record's tiling.
func (r *record) tilingOf() pattern.Tiling {
	return pattern.Tiling{Tm: int(r.tiling[0]), Tn: int(r.tiling[1]), Tr: int(r.tiling[2]), Tc: int(r.tiling[3])}
}

// frontier is one memo value: the records that can win at some interval
// T ≥ lo, sorted by (E0, canonical order), with the layer's MAC count.
// It is immutable once published, so a query reads it without a lock.
type frontier struct {
	lo   time.Duration
	macs uint64
	recs []record
}

// alwaysValid is the lo of a frontier whose answer cannot depend on the
// interval: no refresh is priced, or the natural-tiling baseline, whose
// first-feasible choice never reads an energy.
const alwaysValid = time.Duration(math.MinInt64)

// price is the record's exact Eq. 14 total at the options' interval:
// the same counts, the same refreshAt and the same pricing table as
// evaluateCellInto, so the two agree bit for bit.
func (f *frontier) price(r *record, opts *Options, pt *mem.OperatingPoint, mp MappingPolicy,
	refreshing bool, banks, bankWords int) float64 {
	var refreshes uint64
	if refreshing {
		_, refreshes = refreshAt(opts, pt, r.lt, r.exec, r.alloc(), banks, bankWords)
	}
	return energy.SystemTable(energy.Counts{
		MACs:           f.macs,
		BufferAccesses: r.buf,
		Refreshes:      refreshes,
		DDRAccesses:    r.ddr,
		BufferWrites:   r.writes,
	}, mp.Apply(pt.Table())).Total()
}

// pick returns the index of the canonical argmin of the records
// re-priced at the options' interval, and its exact energy. A record
// whose E0 exceeds the best exact energy so far cannot reach it at any
// interval, and every later record's E0 is at least as large, so the
// scan stops there; a record whose E0 equals it can still tie and win
// the canonical tie-break, so it is priced. pts and maps are the
// layer's resolved operating-point and mapping axes.
func (f *frontier) pick(opts *Options, pts []mem.OperatingPoint, maps []MappingPolicy,
	refreshing bool, banks, bankWords int) (int, float64) {
	best, win := math.Inf(1), -1
	for i := range f.recs {
		r := &f.recs[i]
		if r.e0 > best {
			break
		}
		e := f.price(r, opts, &pts[r.point], maps[r.mp], refreshing, banks, bankWords)
		if e < best || (e == best && r.before(&f.recs[win])) {
			best, win = e, i
		}
	}
	return win, best
}

// query answers layer l at the options' interval (≥ f.lo) into lp: the
// frontier's pick, evaluated exactly, so the plan comes from the same
// path as an explored one and carries l's identity. pts is the caller's
// operating-point scratch, returned for reuse.
func (f *frontier) query(lp *LayerPlan, pts []mem.OperatingPoint, l *models.ConvLayer, cfg *hw.Config,
	opts *Options, env *compileEnv) ([]mem.OperatingPoint, error) {
	bk, pts, err := appendBackendPoints(pts[:0], *cfg, *opts, opts.layerBudget(l.Name), l.Name)
	if err != nil {
		return pts, err
	}
	win, best := f.pick(opts, pts, env.maps, opts.Controller != nil && bk.Refreshes(),
		hw.BankCount(cfg.BufferWords, cfg.BankWords), cfg.BankWords)
	if win < 0 {
		return pts, fmt.Errorf("sched: empty layer frontier for %q", l.Name)
	}
	r := &f.recs[win]
	if err := evaluateCellInto(lp, l, opts.Patterns[r.kind], r.tilingOf(), cfg, opts, bk, &pts[r.point],
		env.travs[r.trav], env.maps[r.mp]); err != nil {
		return pts, err
	}
	if got := lp.Energy.Total(); got != best {
		return pts, fmt.Errorf("sched: layer %q: frontier priced %g pJ, exact evaluation %g pJ", l.Name, best, got)
	}
	return pts, nil
}

// recordBuf is one scan goroutine's records during a frontier build
// (a search.Recorder): appended without a lock, merged by the builder
// once the exploration returns.
type recordBuf struct {
	recs []record
	macs uint64
	// best is the least exact energy this goroutine priced. The winner's
	// energy U is at most that, so a record whose E0 exceeds it can never
	// enter the frontier and is not kept.
	best float64
}

var recordBufPool = sync.Pool{New: func() any { return new(recordBuf) }}

// Record implements search.Recorder.
func (rb *recordBuf) Record(c search.Candidate, out *search.Outcome[LayerPlan]) {
	rb.best = min(rb.best, out.Energy)
	e0 := refreshFree(out.Value.Energy)
	if e0 > rb.best {
		return
	}
	if len(rb.recs) == cap(rb.recs) {
		// Before growing, drop what the tightened best already excludes.
		kept := 0
		for i := range rb.recs {
			if rb.recs[i].e0 > rb.best {
				continue
			}
			if kept != i {
				rb.recs[kept] = rb.recs[i]
			}
			kept++
		}
		rb.recs = rb.recs[:kept]
	}
	rb.macs = out.Value.Analysis.MACs
	rb.recs = append(rb.recs, record{})
	setRecord(&rb.recs[len(rb.recs)-1], c, &out.Value, e0)
}

// Release implements search.Recorder: the buffer stays with its build
// until the merge.
func (rb *recordBuf) Release() {}

// refreshFree is E0: the exact total of a breakdown with its refresh
// addend replaced by +0 — what SystemTable returns at zero refresh
// words, and never more than the total itself.
func refreshFree(e energy.Breakdown) float64 {
	e.Refresh = 0
	return e.Total()
}

// setRecord projects one exactly priced candidate with refresh-free
// energy e0 onto *r, in place (a record is too large to copy per
// candidate). frontierBuild.admits has checked that the problem fits
// the compact fields.
func setRecord(r *record, c search.Candidate, lp *LayerPlan, e0 float64) {
	a := &lp.Analysis
	r.e0 = e0
	r.buf, r.ddr, r.writes = lp.Counts.BufferAccesses, lp.Counts.DDRAccesses, lp.Counts.BufferWrites
	r.exec, r.lt = a.ExecTime, a.Lifetimes
	r.banks = [3]int32{int32(lp.Alloc.InputBanks), int32(lp.Alloc.OutputBanks), int32(lp.Alloc.WeightBanks)}
	r.tiling = [4]int32{int32(c.Tiling.Tm), int32(c.Tiling.Tn), int32(c.Tiling.Tr), int32(c.Tiling.Tc)}
	r.ti = int32(c.TilingIdx)
	r.kind, r.point, r.trav, r.mp = uint16(c.KindIdx), uint16(c.PointIdx), uint16(c.TravIdx), uint16(c.MapIdx)
}

// frontierBuild collects one exploration's records across its scan
// goroutines. Its lock guards only the buffer list, taken once per scan
// goroutine, never per evaluation.
type frontierBuild struct {
	mu   sync.Mutex
	bufs []*recordBuf
	// finish's scratch: the sorted candidates, the kept records and
	// their scan order.
	order []cellRecord
	kept  []record
	scan  []int32
}

// admits reports whether every index and dimension of the problem fits
// a record's compact fields. A problem that does not is explored
// without recording. The tiling index fits whenever the dimensions do:
// each tiling axis holds at most 34 values (the powers of two below the
// dimension, the dimension, the array width), so the space is far
// below 2^31 tilings.
func (b *frontierBuild) admits(e *models.ConvLayer, opts *Options, points int, env *compileEnv, banks int) bool {
	const maxIdx = math.MaxUint16
	return len(opts.Patterns) <= maxIdx && points <= maxIdx && len(env.travs) <= maxIdx && len(env.maps) <= maxIdx &&
		max(e.M, e.N, e.R(), e.C(), banks) <= math.MaxInt32
}

// recorder leases a scan goroutine's buffer (search.Problem.NewRecorder).
func (b *frontierBuild) recorder() search.Recorder[LayerPlan] {
	rb := recordBufPool.Get().(*recordBuf)
	rb.recs, rb.macs, rb.best = rb.recs[:0], 0, math.Inf(1)
	b.mu.Lock()
	b.bufs = append(b.bufs, rb)
	b.mu.Unlock()
	return rb
}

// finish turns the recorded candidates into the frontier for intervals
// T ≥ lo, given the winner's exact energy u at lo: the records with
// E0 ≤ u in (E0, canonical) order, minus the dominated ones. A record
// can only be dominated by one of its own cell that sorts before it, so
// one pass per cell against the records kept so far is complete. The
// build adds no exact evaluation: every candidate with E0 ≤ u was
// priced, because its bound is ≤ E0 ≤ u ≤ every incumbent and a
// branch-and-bound never prunes it.
func (b *frontierBuild) finish(u float64, lo time.Duration) frontier {
	order := b.order[:0]
	var macs uint64
	for _, rb := range b.bufs {
		for i := range rb.recs {
			if r := &rb.recs[i]; r.e0 <= u {
				order = append(order, cellRecord{cell: uint32(r.point)<<16 | uint32(r.mp), e0: r.e0, r: r})
			}
		}
		if len(rb.recs) > 0 {
			macs = rb.macs
		}
	}
	// Dominance runs per cell, each cell's records in frontier order,
	// against the cell's records kept so far (contiguous, so the scans
	// stay in cache). A few records drop most of the others, so a
	// dominator moves to the front of its cell's scan order.
	slices.SortFunc(order, byCellE0)
	kept := b.kept[:0]
	for start := 0; start < len(order); {
		end, scan := start, b.scan[:0]
		for ; end < len(order) && order[end].cell == order[start].cell; end++ {
			x, dominated := order[end].r, false
			for p, j := range scan {
				if kept[j].dominates(x) {
					copy(scan[1:p+1], scan[:p])
					scan[0], dominated = j, true
					break
				}
			}
			if !dominated {
				scan = append(scan, int32(len(kept)))
				kept = append(kept, *x)
			}
		}
		b.scan = scan[:0]
		start = end
	}
	recs := slices.Clone(kept)
	if len(order) > 0 && order[0].cell != order[len(order)-1].cell {
		// Several cells: merge them back into frontier order.
		slices.SortFunc(recs, func(a, b record) int { return byE0(&a, &b) })
	}
	clear(order)
	b.order, b.kept = order[:0], kept[:0]
	b.reset()
	return frontier{lo: lo, macs: macs, recs: recs}
}

// natural records the natural-tiling baseline's one candidate: its
// first feasible one, whatever the interval.
func (b *frontierBuild) natural(lp *LayerPlan, kinds []pattern.Kind) {
	c := search.Candidate{Kind: lp.Analysis.Pattern, KindIdx: slices.Index(kinds, lp.Analysis.Pattern), Tiling: lp.Analysis.Tiling}
	b.recorder().Record(c, &search.Outcome[LayerPlan]{Feasible: true, Energy: lp.Energy.Total(), Value: *lp})
}

// reset returns the build's record buffers to their pool — after a
// merge, or with a failed build's records.
func (b *frontierBuild) reset() {
	for _, rb := range b.bufs {
		recordBufPool.Put(rb)
	}
	clear(b.bufs)
	b.bufs = b.bufs[:0]
}

// memoEntry is one in-flight or completed frontier. lo is the lowest
// interval the entry answers: the owner's interval while in flight, the
// frontier's lo once published. The owner holds wg at one until it
// finishes, and ok (written and read under the memo's mutex, or after
// wg.Wait) reports whether f is valid. Failed entries are removed from
// the table before the owner releases wg, so waiters observing
// ok == false recompute individually.
type memoEntry struct {
	wg sync.WaitGroup
	lo time.Duration
	f  frontier
	ok bool
}

// Memo caches per-layer frontiers across compiles — ranad shares one
// server-wide. Safe for concurrent use. The zero value is not usable;
// call NewMemo.
type Memo struct {
	mu       sync.Mutex
	entries  map[memoKey]*memoEntry
	cap      int
	records  int // records held by completed frontiers
	building int // frontiers in flight, each reserving one record
	hits     uint64
	misses   uint64
	rebuilds uint64
}

// NewMemo returns a memo bounded to capacity frontier records (<= 0
// selects DefaultMemoCapacity). A new frontier, or a rebuild, is
// admitted only while the records held plus one per frontier in flight
// stay below that, and an admitted frontier is stored whole, so a full
// memo exceeds its capacity by at most the frontiers in flight when it
// filled. Past that, new
// shapes are explored without being recorded — the memo never evicts;
// each compile's in-compile dedup still explores a shape it repeats
// only once.
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	return &Memo{entries: make(map[memoKey]*memoEntry), cap: capacity}
}

// MemoStats is a point-in-time snapshot of a memo's effectiveness.
type MemoStats struct {
	// Hits counts layers served without exploring: lookups answered from
	// a completed (or in-flight) frontier, plus the layers a compile's
	// in-compile dedup filled from a same-shaped layer.
	Hits uint64
	// Misses counts lookups that explored and recorded a frontier,
	// rebuilds included.
	Misses uint64
	// Rebuilds counts the misses that replaced a frontier built at a
	// longer interval than the request's.
	Rebuilds uint64
	// Entries is the current table size.
	Entries int
	// Records is the number of frontier records held — what the
	// capacity bounds.
	Records int
}

// Stats snapshots the memo counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Rebuilds: m.rebuilds, Entries: len(m.entries), Records: m.records}
}

// appendSignature appends the canonical options form the memo keys on
// to dst — the same resolution rules as the serving cache hashing
// (resolved strategy spelled out, beam width only under beam, effective
// guard band, controller by name, default backend spelling folded for
// the configuration's buffer technology) so equivalent spellings
// collapse onto one entry. Parallelism, Memo, Prefix, DisableMemo,
// DisableIncremental and Check are deliberately absent: none of them
// changes a layer's resulting plan bytes. RefreshInterval is absent
// too: a frontier answers every interval at or above the one it was
// built at, and the memo rebuilds it below that. One strconv.Append* call per
// component keeps the compile path's (interned) build allocation-free;
// %g floats spell identically to the historical fmt.Fprintf form (both
// emit the shortest round-trip representation).
func (o Options) appendSignature(dst []byte, tech energy.BufferTech) []byte {
	for _, k := range o.Patterns {
		dst = append(dst, k.String()...)
		dst = append(dst, ',')
	}
	if o.Controller != nil {
		dst = append(dst, "|ctrl="...)
		dst = append(dst, o.Controller.Name()...)
	}
	if o.NaturalTiling {
		dst = append(dst, "|natural"...)
	}
	dst = append(dst, "|guard="...)
	dst = strconv.AppendFloat(dst, o.Guard(), 'g', -1, 64)
	if o.FixedTiling != nil {
		t := *o.FixedTiling
		dst = append(dst, "|fixed="...)
		dst = strconv.AppendInt(dst, int64(t.Tm), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(t.Tn), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(t.Tr), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(t.Tc), 10)
	}
	dst = append(dst, "|search="...)
	dst = append(dst, string(o.Search.Resolve())...)
	if o.Search.Resolve() == search.Beam {
		dst = append(dst, "|beam="...)
		dst = strconv.AppendInt(dst, int64(search.EffectiveWidth(o.BeamWidth)), 10)
	}
	// The memory-backend axis. The explicit default backend name folds
	// onto the empty spelling (the technology is also a key component,
	// so folding per technology is sound). A pinned point stays distinct
	// from an unpinned search even when it is "nominal": pinning
	// collapses the point axis, which on multi-point backends changes
	// the plan space.
	if b := mem.NormalizeName(o.Backend, tech); b != "" {
		dst = append(dst, "|backend="...)
		dst = append(dst, b...)
	}
	if o.OperatingPoint != "" {
		dst = append(dst, "|op="...)
		dst = append(dst, o.OperatingPoint...)
	}
	if o.ErrorBudget > 0 {
		dst = append(dst, "|ebudget="...)
		dst = strconv.AppendFloat(dst, o.ErrorBudget, 'g', -1, 64)
	}
	// The traversal and mapping axes, in canonical spelling so
	// equivalent specs ("", "linear", "linear,linear") collapse onto one
	// entry; the default-only axes append nothing, keeping legacy
	// signatures byte-identical (and the empty-spec fast path
	// allocation-free). Validate already rejected unparseable specs, so
	// the canonicalizers cannot fail here.
	if o.Traversal != "" {
		if tr, err := CanonicalTraversalSpec(o.Traversal); err == nil && tr != "" {
			dst = append(dst, "|traversal="...)
			dst = append(dst, tr...)
		}
	}
	if o.Mapping != "" {
		if mp, err := CanonicalMappingSpec(o.Mapping); err == nil && mp != "" {
			dst = append(dst, "|mapping="...)
			dst = append(dst, mp...)
		}
	}
	return dst
}

// keyWithSig builds the memo key against a precomputed signature (the
// compile path builds it once per network, not once per layer): layer
// identity and config name are cleared, since they do not influence
// exploration, and the options enter through the signature. Per-layer
// error budgets are the one place identity does influence
// exploration, so the layer's *resolved* budget is folded into the
// digest; with no per-layer budgets a zero budget word with a cleared
// presence flag keeps legacy problems distinct from budgeted ones.
//
// The encoding is injective: every component is a fixed-width word
// except the signature, which comes last — so no two distinct tuples
// serialize to the same bytes. Layer identity (Name, Stage) and
// cfg.Name never influence exploration and are excluded; padding
// collapses into the derived output geometry (exploration never reads
// P directly). Every semantic field of models.ConvLayer and hw.Config
// must appear here — TestMemoKeyCoversAllFields pins the field counts
// so adding a struct field without extending the encoding fails loudly.
func keyWithSig(l models.ConvLayer, cfg hw.Config, opts Options, sig string) memoKey {
	var scratch [352]byte
	b := scratch[:0]
	// Layer canonical shape + derived output geometry.
	for _, v := range [...]uint64{
		uint64(l.N), uint64(l.H), uint64(l.L), uint64(l.M),
		uint64(l.K), uint64(l.S), uint64(l.Groups),
		uint64(l.R()), uint64(l.C()),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	// Accelerator configuration, Name excluded.
	for _, v := range [...]uint64{
		uint64(cfg.ArrayM), uint64(cfg.ArrayN), uint64(cfg.Mapping),
		math.Float64bits(cfg.FrequencyHz),
		uint64(cfg.LocalInput), uint64(cfg.LocalOutput), uint64(cfg.LocalWeight),
		cfg.BufferWords, uint64(cfg.BufferTech), uint64(cfg.BankWords),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	// Resolved per-layer budget: presence flag + value, fixed width.
	if len(opts.LayerBudgets) > 0 {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(opts.layerBudget(l.Name)))
	} else {
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, 0)
	}
	b = append(b, sig...)
	return sha256.Sum256(b)
}

// peek returns the completed frontier for key if it covers interval t,
// without blocking: in-flight entries, misses and frontiers built above
// t return false and the caller takes the exploring path (exploreEnv),
// which waits on in-flight owners, rebuilds, and keeps the hit
// accounting there. This is the warm compile path's allocation-free
// fast lane — no goroutine, no closure, no channel.
func (m *Memo) peek(key memoKey, t time.Duration) (frontier, bool) {
	if m == nil {
		return frontier{}, false
	}
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok || !e.ok || t < e.lo {
		m.mu.Unlock()
		return frontier{}, false
	}
	m.hits++
	f := e.f
	m.mu.Unlock()
	return f, true
}

// memoMode classifies one acquire: served from an entry, saturated, or
// owned (the caller must explore and publish through fillEnv).
type memoMode int

const (
	memoWait memoMode = iota // wait on the returned entry
	memoFull                 // explore without recording
	memoOwn                  // caller owns the returned entry
)

// acquire looks the key up at interval t. An entry whose frontier
// covers t, completed or in flight, is returned to wait on (a hit). An
// entry built above t is rebuilt: the caller owns a fresh entry that
// replaces it (a miss and a rebuild) — unless that entry is still in
// flight or the memo is full, when the caller explores without
// recording. A missing key installs a fresh owned entry (a miss) while
// the memo has room.
func (m *Memo) acquire(key memoKey, t time.Duration) (*memoEntry, memoMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, found := m.entries[key]
	if found && t >= old.lo {
		m.hits++
		return old, memoWait
	}
	if (found && !old.ok) || m.records+m.building >= m.cap {
		// Nothing to record into: explore without recording, and count
		// no miss — nothing was added. Same-shaped layers of the
		// caller's compile still explore once (the in-compile dedup
		// counts their hits).
		return nil, memoFull
	}
	if found {
		m.records -= len(old.f.recs)
		m.rebuilds++
	}
	e := &memoEntry{lo: t}
	e.wg.Add(1)
	m.entries[key] = e
	m.building++
	m.misses++
	return e, memoOwn
}

// answer serves layer l from a completed frontier, leasing an explore
// arena for the operating-point scratch.
func answer(f *frontier, l models.ConvLayer, cfg hw.Config, opts Options, env compileEnv) (LayerPlan, error) {
	s := exploreStatePool.Get().(*exploreState)
	defer s.release()
	var lp LayerPlan
	var err error
	s.points, err = f.query(&lp, s.points, &l, &cfg, &opts, &env)
	return lp, err
}

// exploreEnv returns the layer's plan through the memo: a frontier
// covering the options' interval answers it; otherwise the caller
// explores through the compile's environment and publishes the
// frontier for same-shaped layers of other compiles. The key is
// prebuilt, and no compute closure is involved, which is what keeps
// the cold optimized path's allocations below the baseline's. A nil
// memo degenerates to a plain exploration.
func (m *Memo) exploreEnv(key memoKey, l models.ConvLayer, cfg hw.Config, opts Options,
	env compileEnv) (LayerPlan, search.Stats, bool, error) {
	if m == nil {
		lp, stats, err := exploreLayerEnv(l, cfg, opts, env)
		return lp, stats, false, err
	}
	e, mode := m.acquire(key, opts.RefreshInterval)
	switch mode {
	case memoWait:
		e.wg.Wait()
		if e.ok {
			lp, err := answer(&e.f, l, cfg, opts, env)
			return lp, search.Stats{}, true, err
		}
	case memoOwn:
		lp, stats, err := m.fillEnv(key, e, l, cfg, opts, env)
		return lp, stats, false, err
	}
	lp, stats, err := exploreLayerEnv(l, cfg, opts, env)
	return lp, stats, false, err
}

// fillEnv runs the owner's recording exploration and publishes (or
// withdraws) the entry. The deferred cleanup also fires on panic, so a
// poisoned candidate cannot leave same-shaped waiters blocked forever.
// Results are published under m.mu so peek can read completed entries
// without waiting. The owner's own plan is the exploration's winner,
// exactly what the same compile without a memo returns.
func (m *Memo) fillEnv(key memoKey, e *memoEntry, l models.ConvLayer, cfg hw.Config,
	opts Options, env compileEnv) (lp LayerPlan, stats search.Stats, err error) {
	defer m.finish(key, e)
	var f frontier
	lp, stats, f, err = buildFrontier(l, cfg, opts, env)
	if err != nil || len(f.recs) == 0 {
		return lp, stats, err
	}
	m.mu.Lock()
	e.f, e.lo, e.ok = f, f.lo, true
	m.records += len(f.recs)
	m.mu.Unlock()
	return lp, stats, nil
}

// finish withdraws a failed entry and releases its waiters.
func (m *Memo) finish(key memoKey, e *memoEntry) {
	m.mu.Lock()
	m.building--
	if !e.ok && m.entries[key] == e {
		delete(m.entries, key)
	}
	m.mu.Unlock()
	e.wg.Done()
}

// countHits records n layers a compile served without exploring by
// copying a same-shaped layer's plan (the in-compile dedup), so the
// hit counter /metrics exports keeps counting every layer served
// without exploring, saturated table or not.
func (m *Memo) countHits(n int) {
	m.mu.Lock()
	m.hits += uint64(n)
	m.mu.Unlock()
}
