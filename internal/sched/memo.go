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
// type is a frontier: the layer's interval envelope over [T_lo, ∞). The
// build records every candidate an exploration at T_lo priced with
// E0 ≤ U, U the winner's exact energy at T_lo (any candidate that can
// win at some T ≥ T_lo has E0 ≤ E(c, T) ≤ U), sweeps the interval
// forward from T_lo to find every nanosecond at which the canonical
// argmin changes, and keeps only the records that win somewhere. A
// query binary-searches its interval's piece, re-prices that piece's
// winner and runs the exact evaluator (evaluateCellInto) once on it, so
// a served plan comes from the same pricing path as an explored one and
// carries the requesting layer's identity. A request below T_lo
// rebuilds the frontier once, down to the conventional 45 µs refresh
// interval (retention.TypicalRetentionTime), or at its own interval when
// that is lower, so a sweep whose running minimum falls rebuilds each
// shape once rather than at every new low. A request below a build
// still in flight waits for it and then rebuilds, so concurrent
// requests below one build rebuild the shape once too.
//
// Errors are never cached: their messages embed layer names, and a
// transient failure must not poison every same-shaped layer.

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched/search"
)

// DefaultMemoCapacity bounds the frontier records a Memo holds when
// NewMemo is given no explicit capacity. A record takes 104 bytes, plus
// 12 bytes per envelope piece, so a full default memo holds about
// 2.4 MB. A frontier keeps only the records that win at some interval:
// the zoo's 81 distinct shapes need about 840 records for the default
// space and the RTC × all-mappings space together at the conventional
// 45 µs interval, so a server that has compiled both still has room for
// many more option sets.
const DefaultMemoCapacity = 20480

// memoKey identifies one exploration problem exactly: the frame digest
// every layer of one compile shares, and the layer's own part. It is a
// comparable struct of 120 bytes, under the runtime's 128-byte limit
// for map keys stored inline, so an insert copies it into the table
// without a heap allocation.
type memoKey struct {
	frame [sha256.Size]byte
	shape layerShape
}

// layerShape is a layer's part of its memo key: the shape and derived
// output geometry (N, H, L, M, K, S, Groups, R(), C()), and the resolved
// error budget with a presence flag that keeps options without
// per-layer budgets apart from budgeted ones.
//
// The tuple is deliberately as coarse as soundness allows and no
// coarser. Exploration reads the padding only through the derived
// R()/C(), so distinct (P) spellings with identical derived geometry
// share an entry (r/c carry the information P held). Coarsening over M
// — the axis GoogLeNet's near-duplicate inception branches actually
// differ in — is NOT sound: M reaches the plan through the Tm candidate
// axis, ceil(M/Tm), the weight/output volumes and the MAC count, so two
// branches differing only in M pick genuinely different plans and a
// shared frontier would answer one with the other's candidates
// (TestMemoNearDuplicateShapesStayDistinct pins this boundary).
type layerShape struct {
	dims     [9]int64
	budget   uint64
	budgeted bool
}

// hash mixes the shape into the in-compile dedup's table index
// (shapeTable): each field is folded in by an xor and an odd multiply,
// and SplitMix64's finalizer stirs the result, so the low bits a table
// masks depend on every bit of every field. Equal shapes hash equal;
// the table compares shapes in full.
func (s *layerShape) hash() uint64 {
	h := s.budget
	if s.budgeted {
		h = ^h
	}
	for _, d := range s.dims {
		h = (h ^ uint64(d)) * 0x9e3779b97f4a7c15
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// record is one winning candidate of a frontier: everything its exact
// energy depends on at any refresh interval, and nothing that depends on
// one. The canonical cell indices (pattern kind, tiling, operating
// point, traversal, mapping) and the tiling re-address the candidate;
// the three non-refresh counts that vary with it (the MAC count is the
// layer's, held once per frontier), the execution time, the three data
// lifetimes and the three bank counts are the refresh term's inputs;
// e0 is the exact energy at zero refresh words. 104 bytes. A build
// records every candidate that might win and the envelope sweep keeps
// only the ones that do.
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

// frontier is one memo value: the layer's interval envelope over
// [lo, ∞), with the layer's MAC count. Piece k is won by recs[win[k]];
// piece 0 starts at lo, piece k > 0 at bps[k-1], and each piece ends
// where the next starts (the last never does). A record may win several
// pieces. It is immutable once published, so a query reads it without
// a lock. While a build sweeps it, recs holds every recorded candidate
// in (E0, canonical) order and bps and win are unset.
type frontier struct {
	lo   time.Duration
	macs uint64
	recs []record
	bps  []time.Duration
	win  []int32
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

// argmin returns the index of the canonical argmin of the records,
// priced by price, and its price: an exact total at one interval. A
// record whose E0 exceeds the best price so far cannot reach it at any
// interval, and every later record's E0 is at least as large, so the
// scan stops there; a record whose E0 equals it can still tie and win
// the canonical tie-break, so it is priced. It needs the records in
// (E0, canonical) order, as a build holds them before its sweep: the
// sweep re-picks through it, and tests price through frontier.price
// (pick) to check the envelope against it.
func (f *frontier) argmin(price func(i int) float64) (int, float64) {
	best, win := math.Inf(1), -1
	for i := range f.recs {
		r := &f.recs[i]
		if r.e0 > best {
			break
		}
		e := price(i)
		if win < 0 || e < best || (e == best && r.before(&f.recs[win])) {
			best, win = e, i
		}
	}
	return win, best
}

// winner returns the record that wins interval t: the winner of the
// piece t falls in, found by binary search over the breakpoints.
func (f *frontier) winner(t time.Duration) *record {
	k, at := slices.BinarySearch(f.bps, t)
	if at {
		k++ // a breakpoint is its new piece's first nanosecond
	}
	return &f.recs[f.win[k]]
}

// query answers layer l at the options' interval (≥ f.lo) into lp: the
// winner of the interval's piece, re-priced and evaluated exactly, so
// the plan comes from the same path as an explored one and carries l's
// identity. bk and pts are l's resolved backend and operating points.
func (f *frontier) query(lp *LayerPlan, l *models.ConvLayer, cfg *hw.Config, opts *Options, env *compileEnv,
	bk mem.Backend, pts []mem.OperatingPoint) error {
	if len(f.win) == 0 {
		return fmt.Errorf("sched: empty layer frontier for %q", l.Name)
	}
	r := f.winner(opts.RefreshInterval)
	best := f.price(r, opts, &pts[r.point], env.maps[r.mp], opts.Controller != nil && bk.Refreshes(),
		hw.BankCount(cfg.BufferWords, cfg.BankWords), cfg.BankWords)
	if err := evaluateCellInto(lp, l, opts.Patterns[r.kind], r.tilingOf(), cfg, opts, bk, &pts[r.point],
		env.travs[r.trav], env.maps[r.mp]); err != nil {
		return err
	}
	if got := lp.Energy.Total(); got != best {
		return fmt.Errorf("sched: layer %q: frontier priced %g pJ, exact evaluation %g pJ", l.Name, best, got)
	}
	return nil
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
// goroutines and sweeps them into an envelope. It lives in the explore
// arena, and so do its record buffers and scratch, so a build reuses
// what the arena's last build grew. Its lock guards only the buffer
// list, taken once per scan goroutine, never per evaluation.
type frontierBuild struct {
	mu sync.Mutex
	// bufs[:len] are this build's record buffers; the arena keeps the
	// ones past len for the next build.
	bufs []*recordBuf
	// finish's and envelope's scratch: the sorted candidates, the kept
	// records and their scan order, the records' interval-free addends
	// and sweep bounds, and the pieces' breakpoints and winners.
	order  []cellRecord
	kept   []record
	scan   []int32
	adds   []addends
	from   []time.Duration
	bps    []time.Duration
	pieces []int32
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
	b.mu.Lock()
	n := len(b.bufs)
	b.bufs = slices.Grow(b.bufs, 1)[:n+1]
	if b.bufs[n] == nil {
		b.bufs[n] = new(recordBuf)
	}
	rb := b.bufs[n]
	b.mu.Unlock()
	rb.recs, rb.macs, rb.best = rb.recs[:0], 0, math.Inf(1)
	return rb
}

// finish turns the recorded candidates into the frontier's candidates
// for intervals T ≥ lo, given the winner's exact energy u at lo: the
// records with E0 ≤ u in (E0, canonical) order, minus the dominated
// ones. A record can only be dominated by one of its own cell that
// sorts before it, so one pass per cell against the records kept so
// far is complete. The build adds no exact evaluation: every candidate
// with E0 ≤ u was priced, because its bound is ≤ E0 ≤ u ≤ every
// incumbent and a branch-and-bound never prunes it. The returned
// records are the build's scratch, valid until its next finish;
// envelope copies out what a frontier keeps.
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
	if len(order) > 0 && order[0].cell != order[len(order)-1].cell {
		// Several cells: merge them back into frontier order.
		slices.SortFunc(kept, func(a, b record) int { return byE0(&a, &b) })
	}
	clear(order)
	b.order, b.kept = order[:0], kept[:0]
	b.reset()
	return frontier{lo: lo, macs: macs, recs: kept}
}

// addends are the parts of a record's Eq. 14 total that do not read the
// interval, priced once per sweep: Breakdown.Total sums
// (((C+B)+R)+O)+W left to right and only R reads T, so C+B, O and W
// with the refresh price per word re-price the record at any interval
// bit for bit as frontier.price does, without rebuilding its table.
type addends struct{ cb, o, w, rpj float64 }

// sweep re-prices a frontier's records at arbitrary intervals while
// envelope searches for its breakpoints. from[i] is a lower bound on the
// first interval at which record i beats the incumbent: the incumbent's
// price only falls from step to step, and when it stays the same the new
// incumbent is canonically earlier, so a bound found at one step holds
// at every later one.
type sweep struct {
	recs             []record
	adds             []addends
	from             []time.Duration
	opts             Options // RefreshInterval is the probe's
	pts              []mem.OperatingPoint
	banks, bankWords int
}

// newSweep prices f's records' addends into adds and clears from (both
// scratch, returned inside the sweep) under the layer's resolved axes.
func newSweep(f *frontier, adds []addends, from []time.Duration, opts *Options, pts []mem.OperatingPoint,
	maps []MappingPolicy, banks, bankWords int) sweep {
	adds, from = adds[:0], append(from[:0], make([]time.Duration, len(f.recs))...)
	for i := range f.recs {
		r := &f.recs[i]
		t := maps[r.mp].Apply(pts[r.point].Table())
		e := energy.SystemTable(energy.Counts{MACs: f.macs, BufferAccesses: r.buf, DDRAccesses: r.ddr, BufferWrites: r.writes}, t)
		adds = append(adds, addends{cb: e.Computing + e.BufferAccess, o: e.OffChip, w: e.Wear, rpj: t.RefreshPJ})
	}
	return sweep{recs: f.recs, adds: adds, from: from, opts: *opts, pts: pts, banks: banks, bankWords: bankWords}
}

// price is record i's exact total at interval t: frontier.price's sum
// from the record's addends.
func (s *sweep) price(i int, t time.Duration) float64 {
	r, a := &s.recs[i], &s.adds[i]
	s.opts.RefreshInterval = t
	_, words := refreshAt(&s.opts, &s.pts[r.point], r.lt, r.exec, r.alloc(), s.banks, s.bankWords)
	return ((a.cb + float64(words)*a.rpj) + a.o) + a.w
}

// beats reports whether record i would beat the incumbent w, priced p,
// at interval t: priced below p, or at p and canonically first. A
// record can overtake w only where it beats w's price at the start of
// w's run, because w's own price never rises. Prices never rise with the
// interval, so once true it stays true.
func (s *sweep) beats(i, w int, p float64, t time.Duration) bool {
	e := s.price(i, t)
	return e < p || (e == p && s.recs[i].before(&s.recs[w]))
}

// next returns the earliest interval in (t, ceil] at which some record
// beats the incumbent w priced p at t, or ceil+1 when none does, and
// leaves from[i] at or below each record's first such interval, equal
// to the result exactly for the records that beat w there. Only records
// with E0 ≤ p can. A record whose bound already passes the earliest
// interval found so far is skipped unpriced. One that does not beat p
// there gallops past it, doubling the distance of each probe, so a
// record far from overtaking w is skipped for many steps: at short
// intervals every price falls with the interval and the incumbent's
// runner-up forces a step each time it reaches p. One that does beat p
// is binary-searched for its first such interval, which beats is
// monotone in.
func (s *sweep) next(w int, p float64, t, ceil time.Duration) time.Duration {
	next := ceil + 1
	for i := range s.recs {
		if s.recs[i].e0 > p {
			break
		}
		if i == w || s.from[i] > next {
			continue
		}
		if !s.beats(i, w, p, next) {
			from, d := next+1, max(next-t, 1)
			for from <= ceil {
				at := from + min(d, ceil+1-from)
				if s.beats(i, w, p, at) {
					break
				}
				from, d = at+1, min(d, ceil/2)*2
			}
			s.from[i] = from
			continue
		}
		lo, hi := max(t+1, s.from[i]), next
		for lo < hi {
			if mid := lo + (hi-lo)/2; s.beats(i, w, p, mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		next, s.from[i] = lo, lo
	}
	return next
}

// ceiling returns an interval from which on no record of f refreshes:
// each record's scaled interval exceeds its execution time, so no
// refresh pulse fires and every price is its E0. It stays below the
// largest interval, so the sweep's ceil+2 cannot overflow.
func (f *frontier) ceiling(pts []mem.OperatingPoint) time.Duration {
	c := f.lo
	for i := range f.recs {
		r := &f.recs[i]
		for c < math.MaxInt64/2 && scaleInterval(c, pts[r.point].RetentionScale) <= r.exec {
			c *= 2
		}
	}
	return min(c, math.MaxInt64-2)
}

// envelope sweeps f, the build's records in frontier order, over
// [f.lo, ∞) and returns the frontier a memo publishes: the records that
// win some piece, the breakpoints and each piece's winner, in storage
// of its own. From the incumbent w at price p at interval t, the sweep
// jumps to the earliest interval at which any record beats p (next):
// before it no record can overtake w, since w's price only falls. There
// it re-picks (argmin); a new winner starts a piece. It stops once no
// record can beat the incumbent below the ceiling, or once recs[0], the
// least E0 and canonically first among equals, wins at its E0: no price
// falls below its own E0. A frontier valid at every interval
// (alwaysValid) prices no refresh, or holds the natural baseline's one
// record, so recs[0] wins it everywhere. pts and maps are the layer's
// resolved operating-point and mapping axes.
func (b *frontierBuild) envelope(f frontier, opts *Options, pts []mem.OperatingPoint, maps []MappingPolicy,
	banks, bankWords int) frontier {
	if len(f.recs) == 0 {
		return frontier{}
	}
	bps, pieces := b.bps[:0], append(b.pieces[:0], 0)
	if f.lo != alwaysValid {
		s := newSweep(&f, b.adds, b.from, opts, pts, maps, banks, bankWords)
		b.adds, b.from = s.adds[:0], s.from[:0]
		t := f.lo
		w, p := f.argmin(func(i int) float64 { return s.price(i, t) })
		pieces[0] = int32(w)
		for ceil := f.ceiling(pts); w != 0 || p != f.recs[0].e0; {
			if t = s.next(w, p, t, ceil); t > ceil {
				break
			}
			// Only w and the records next found beating p at t can win
			// there; the others lose to w without being priced.
			nw, np := f.argmin(func(i int) float64 {
				if i != w && s.from[i] != t {
					return math.Inf(1)
				}
				return s.price(i, t)
			})
			if nw != w {
				bps, pieces = append(bps, t), append(pieces, int32(nw))
			}
			w, p = nw, np
		}
	}
	b.bps, b.pieces = bps[:0], pieces[:0]
	// Publish each winner once, in order of its first piece.
	out := frontier{lo: f.lo, macs: f.macs, bps: slices.Clone(bps), win: make([]int32, len(pieces))}
	n := int32(0)
	for k, i := range pieces {
		if j := slices.Index(pieces[:k], i); j >= 0 {
			out.win[k] = out.win[j]
		} else {
			out.win[k], n = n, n+1
		}
	}
	out.recs = make([]record, n)
	for k, i := range pieces {
		out.recs[out.win[k]] = f.recs[i]
	}
	return out
}

// natural records the natural-tiling baseline's one candidate: its
// first feasible one, whatever the interval.
func (b *frontierBuild) natural(lp *LayerPlan, kinds []pattern.Kind) {
	c := search.Candidate{Kind: lp.Analysis.Pattern, KindIdx: slices.Index(kinds, lp.Analysis.Pattern), Tiling: lp.Analysis.Tiling}
	b.recorder().Record(c, &search.Outcome[LayerPlan]{Feasible: true, Energy: lp.Energy.Total(), Value: *lp})
}

// reset releases the build's record buffers to the arena — after a
// merge, or with a failed build's records.
func (b *frontierBuild) reset() {
	b.bufs = b.bufs[:0]
}

// memoEntry is one in-flight or completed frontier. lo is the lowest
// interval the entry answers: while in flight, the interval the owner
// explores at — its own for a first build, at most 45 µs for a rebuild —
// and the frontier's lo once published. The owner holds wg at one until
// it finishes, and ok (written and read under the memo's mutex, or after
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
	mu         sync.Mutex
	entries    map[memoKey]*memoEntry
	cap        int
	records    int // records held by completed frontiers
	building   int // frontiers in flight, each reserving one record
	hits       uint64
	misses     uint64
	rebuilds   uint64
	unrecorded uint64
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
	return &Memo{entries: make(map[memoKey]*memoEntry, memoTableHint), cap: capacity}
}

// memoTableHint pre-sizes a memo's table for the zoo's 81 distinct
// shapes under one option set, so a memo that serves them never grows
// its table, and a compile's allocations do not depend on where the
// table's growth falls.
const memoTableHint = 128

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
	// longer interval than the request's; a rebuild explores down to
	// 45 µs, or to the request's interval when that is lower.
	Rebuilds uint64
	// Unrecorded counts lookups that explored without recording because
	// the memo was full. A lookup below an in-flight build's interval
	// waits for that build instead, then rebuilds or hits. Misses plus
	// Unrecorded is every layer the memo's compiles explored.
	Unrecorded uint64
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
	return MemoStats{Hits: m.hits, Misses: m.misses, Rebuilds: m.rebuilds, Unrecorded: m.unrecorded,
		Entries: len(m.entries), Records: m.records}
}

// frameDigest is the SHA-256 of a compile's frame, the part of every
// layer's memo key its layers share: AppendCanonical over the
// configuration without its Name, a report label, and the options
// without RefreshInterval, which a frontier answers for every interval
// at or above the one it was built at, and without LayerBudgets, which
// enter each layer's key resolved (layerKey). The compile path builds
// it once per compile.
func frameDigest(cfg hw.Config, opts Options) [sha256.Size]byte {
	cfg.Name = ""
	opts.RefreshInterval, opts.LayerBudgets = 0, nil
	var scratch [512]byte
	return sha256.Sum256(AppendCanonical(scratch[:0], &cfg, &opts))
}

// layerKey is layer l's memo key under the frame digest frame: the
// digest, the layer's shape and derived output geometry, and its
// resolved error budget — the one place layer identity reaches
// exploration. Name and Stage never influence exploration and are
// excluded; padding collapses into the derived geometry (exploration
// never reads P directly). Every other field of models.ConvLayer must
// appear here — TestMemoKeyCoversAllFields pins the field count.
func layerKey(frame *[sha256.Size]byte, l *models.ConvLayer, opts *Options) memoKey {
	k := memoKey{frame: *frame, shape: layerShape{dims: [9]int64{
		int64(l.N), int64(l.H), int64(l.L), int64(l.M),
		int64(l.K), int64(l.S), int64(l.Groups),
		int64(l.R()), int64(l.C()),
	}}}
	if len(opts.LayerBudgets) > 0 {
		k.shape.budget, k.shape.budgeted = math.Float64bits(opts.layerBudget(l.Name)), true
	}
	return k
}

// peek looks up, under one hold of the lock, the key of every layer
// that is not a repeat (reps[i] < 0) and sets fronts[i] to its completed
// frontier when that covers interval t, counting a hit, and reports
// whether it found any. It never blocks on a build: in-flight entries,
// misses and frontiers built above t are left nil, and the caller takes
// the exploring path (exploreEnv), which waits on in-flight owners,
// rebuilds, and keeps the hit accounting there. A completed entry's
// frontier is never written again, so the caller reads it after the
// lock is released. This is the warm compile path's allocation-free
// fast lane — no goroutine, no closure, no channel.
func (m *Memo) peek(keys []memoKey, reps []int, t time.Duration, fronts []*frontier) bool {
	if m == nil {
		return false
	}
	found := false
	m.mu.Lock()
	for i := range keys {
		if reps[i] >= 0 {
			continue
		}
		if e, ok := m.entries[keys[i]]; ok && e.ok && t >= e.lo {
			fronts[i], found = &e.f, true
			m.hits++
		}
	}
	m.mu.Unlock()
	return found
}

// memoMode classifies one acquire: served from an entry, saturated,
// owned (the caller must explore and publish through fillEnv), or
// behind a build that will not cover the caller's interval.
type memoMode int

const (
	memoWait  memoMode = iota // wait on the returned entry
	memoFull                  // explore without recording
	memoOwn                   // caller owns the returned entry
	memoRetry                 // wait on the returned entry, then acquire again
)

// acquire looks the key up at interval t. An entry whose frontier
// covers t, completed or in flight, is returned to wait on (a hit). An
// entry built above t is rebuilt: the caller owns a fresh entry that
// replaces it (a miss and a rebuild), built at min(t, 45 µs) so that the
// intervals a sweep reaches next are hits. While that entry is still in
// flight the caller waits for it and acquires again, so the first of
// such callers rebuilds once and the others wait on its rebuild. A
// missing key installs a fresh owned entry built at t (a miss). With the
// memo full, the caller explores without recording (counted
// unrecorded).
func (m *Memo) acquire(key memoKey, t time.Duration) (*memoEntry, memoMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, found := m.entries[key]
	if found && t >= old.lo {
		m.hits++
		return old, memoWait
	}
	if found && !old.ok {
		return old, memoRetry
	}
	if m.records+m.building >= m.cap {
		// Nothing to record into: explore without recording, and count
		// it unrecorded, not a miss — nothing was added. Same-shaped
		// layers of the caller's compile still explore once (the
		// in-compile dedup counts their hits).
		m.unrecorded++
		return nil, memoFull
	}
	if found {
		m.records -= len(old.f.recs)
		m.rebuilds++
		// Rebuild down to the conventional interval, so a sweep whose
		// running minimum keeps falling rebuilds each shape once.
		t = min(t, retention.TypicalRetentionTime)
	}
	e := &memoEntry{lo: t}
	e.wg.Add(1)
	m.entries[key] = e
	m.building++
	m.misses++
	return e, memoOwn
}

// answer serves layer l from a completed frontier, resolving its
// backend into a leased explore arena's operating-point scratch.
func answer(f *frontier, l models.ConvLayer, cfg hw.Config, opts Options, env compileEnv) (LayerPlan, error) {
	s := exploreStatePool.Get().(*exploreState)
	defer s.release()
	var lp LayerPlan
	var err error
	if s.bk, s.points, err = appendBackendPoints(s.points[:0], cfg, opts, opts.layerBudget(l.Name), l.Name); err != nil {
		return lp, err
	}
	err = f.query(&lp, &l, &cfg, &opts, &env, s.bk, s.points)
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
	for mode == memoRetry {
		e.wg.Wait()
		e, mode = m.acquire(key, opts.RefreshInterval)
	}
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

// fillEnv runs the owner's recording exploration at the entry's lo and
// publishes (or withdraws) the entry. The deferred cleanup also fires on
// panic, so a poisoned candidate cannot leave same-shaped waiters blocked
// forever. Results are published under m.mu so peek can read completed
// entries without waiting. When the exploration ran at the options'
// interval, the owner's plan is its winner, exactly what the same compile
// without a memo returns; a rebuild that ran below it answers the owner
// from the new frontier, as every hit is answered.
func (m *Memo) fillEnv(key memoKey, e *memoEntry, l models.ConvLayer, cfg hw.Config,
	opts Options, env compileEnv) (lp LayerPlan, stats search.Stats, err error) {
	defer m.finish(key, e)
	at := opts
	at.RefreshInterval = e.lo
	var f frontier
	lp, stats, f, err = buildFrontier(l, cfg, at, env)
	if err != nil {
		return lp, stats, err
	}
	if len(f.recs) > 0 {
		m.mu.Lock()
		e.f, e.lo, e.ok = f, f.lo, true
		m.records += len(f.recs)
		m.mu.Unlock()
	}
	if at.RefreshInterval != opts.RefreshInterval {
		lp, err = answer(&f, l, cfg, opts, env)
	}
	return lp, stats, err
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
