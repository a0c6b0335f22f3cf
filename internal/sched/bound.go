package sched

// The admissible lower bound behind the Pruned and Beam search
// strategies: a cheap underestimate of Evaluate's exact Eq. 14 energy,
// computable without running pattern.Analyze, memctrl allocation or
// refresh accounting.
//
// The bound keeps three of the four Eq. 14 terms and drops one:
//
//   - α·Emac — exact. The MAC count is a layer property, independent of
//     pattern and tiling.
//   - βb·Ebuffer — exact. The per-kind buffer-traffic formulas of
//     pattern.Analyze depend only on the tile counts and transfer sizes,
//     never on feasibility or the refresh policy, so the bound evaluates
//     them directly.
//   - βd·Eddr — the compulsory minimum. Every pattern must move each
//     datum on/off chip at least once (din + dw + dout); the spill and
//     reload penalties Analyze adds when a working set overflows the
//     buffer only increase it. WD streams input tiles with halo overlap
//     when the input set cannot stay resident, and for strided layers
//     the overlapped stream can be *smaller* than din (the halo skips
//     rows the kernel never revisits), so WD's input term is
//     min(din, halo traffic).
//   - γ·Erefresh — bounded by zero. Refresh energy is never negative.
//
// Candidates whose streaming working set cannot fit the buffer bound to
// +Inf instead: Analyze's per-kind feasibility checks are a handful of
// multiplies, and an infeasible candidate can never become the search
// incumbent, so an infinite bound is vacuously admissible. It lets the
// branch-and-bound skip pricing infeasible space entirely and keeps the
// beam's exact-evaluation budget spent on candidates that can win
// (TestBoundIsAdmissible pins the formulas against pattern.Analyze so
// they cannot drift).
//
// Admissibility down to the bit: the bound prices its counts through the
// same energy.System → Breakdown.Total() path as Evaluate, with
// identical MAC and buffer counts and component-wise smaller-or-equal
// refresh and DDR counts. float64 conversion, multiplication by a
// positive constant and addition are monotone under round-to-nearest,
// and Total() sums components in one fixed order, so
// lower(k, t) ≤ Evaluate(l, k, t, …).Energy.Total() holds exactly, not
// just approximately — the search engine's pruning test (scan in
// search/scan.go: strictly greater than the incumbent) can therefore
// never discard the argmin or an exact tie.

import (
	"math"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// bound precomputes the tiling-invariant quantities of one layer's
// lower-bound evaluator. All dimensions are the effective per-group
// sub-layer's (grouped convolutions run one group at a time); whole-
// layer counts scale by the group count exactly as Analyze does.
type bound struct {
	l             models.ConvLayer // effective (per-group) sub-layer
	cfg           hw.Config
	g             uint64  // group count scaling sub-layer traffic to the layer
	macs          uint64  // layer MACs, already group-scaled
	r, c          int     // derived output geometry, hoisted for the pricer
	macE          float64 // float64(macs)·MACpJ — the bound's constant Eq. 14 term
	din, dw, dout uint64  // sub-layer data volumes (words)
	// tables are the per-(mapping, operating point) Eq. 14 pricing
	// tables, index-aligned with the search cell as
	// tables[cell.Map*points+cell.Point]. The bound prices buffer
	// traffic with the derived table's own access energy (exact, like
	// the counts) and leaves refresh and wear at their zero lower
	// bounds — both are non-negative under every mapping scale, so
	// admissibility holds per cell by the same argument as before.
	tables []energy.Table
	points int
	// travs is the traversal axis, index-aligned with cell.Trav. A
	// blocked traversal only ever adds DDR reloads and shrinks the
	// (zero-bounded) refresh term — except blocked ID, whose position-
	// granular input staging can undercut din on strided layers exactly
	// like WD's halo stream; lower() takes that min per cell. nil means
	// a linear-only axis.
	travs []pattern.Traversal
}

// newBound builds the lower-bound evaluator for one layer across the
// resolved backend's operating points, traversal orders and mapping
// policies.
func newBound(l models.ConvLayer, cfg hw.Config, tables []energy.Table, points int, travs []pattern.Traversal) *bound {
	b := &bound{}
	b.init(l, cfg, tables, points, travs)
	return b
}

// init rebuilds the evaluator in place — newBound for a pooled bound.
func (b *bound) init(l models.ConvLayer, cfg hw.Config, tables []energy.Table, points int, travs []pattern.Traversal) {
	e := effectiveLayer(l)
	g := uint64(1)
	if l.Groups > 1 {
		g = uint64(l.Groups)
	}
	*b = bound{
		l:      e,
		cfg:    cfg,
		g:      g,
		macs:   e.MACs() * g,
		r:      e.R(),
		c:      e.C(),
		din:    e.InputWords(),
		dw:     e.WeightWords(),
		dout:   e.OutputWords(),
		tables: tables,
		points: points,
		travs:  travs,
	}
	b.macE = float64(b.macs) * energy.MACpJ
}

// lower returns an admissible lower bound on the candidate's exact
// Eq. 14 total energy at the cell's (operating point, traversal,
// mapping): +Inf when the candidate's streaming working set cannot fit
// the buffer (Analyze would report it infeasible). Unknown kinds bound
// to zero — never pruned, so the exact evaluator still sees (and
// rejects) them.
func (b *bound) lower(k pattern.Kind, t pattern.Tiling, cell search.Cell) float64 {
	nM := ceilDiv(b.l.M, t.Tm)
	nN := ceilDiv(b.l.N, t.Tn)
	nR := ceilDiv(b.l.R(), t.Tr)
	nC := ceilDiv(b.l.C(), t.Tc)
	th, tl := t.Th(b.l), t.Tl(b.l)

	tiles := uint64(nM) * uint64(nN) * uint64(nR) * uint64(nC)
	inTile := uint64(t.Tn) * uint64(th) * uint64(tl)
	wTile := uint64(t.Tm) * uint64(t.Tn) * uint64(b.l.K) * uint64(b.l.K)
	outTile := uint64(t.Tm) * uint64(t.Tr) * uint64(t.Tc)
	outTraffic := uint64(nM) * uint64(nR) * uint64(nC) * outTile

	// Analyze's per-kind streaming-working-set requirements (the
	// Feasible predicates), verbatim on the effective sub-layer.
	var workingSet uint64
	var buf uint64
	switch k {
	case pattern.ID:
		workingSet = uint64(b.l.N)*uint64(t.Tm)*uint64(b.l.K)*uint64(b.l.K) + outTile
		buf = tiles*inTile + tiles*wTile + outTraffic
	case pattern.WD:
		workingSet = uint64(b.l.N)*uint64(th)*uint64(tl) + outTile + wTile
		buf = tiles*inTile + tiles*wTile + outTraffic
	case pattern.OD:
		workingSet = uint64(t.Tn)*uint64(b.l.H)*uint64(b.l.L) + wTile + outTile
		// Weights re-read once per (n, m) pass; outputs accumulate
		// read-modify-write across the nN input passes.
		buf = tiles*inTile + uint64(nN)*uint64(nM)*wTile + uint64(2*nN-1)*outTraffic
	default:
		return 0
	}
	if workingSet > b.cfg.BufferWords {
		return math.Inf(1)
	}

	ddrIn := b.din
	if k == pattern.WD {
		// WD's non-resident input stream carries halo overlap but skips
		// never-revisited rows; for strides > 1 it can undercut din.
		haloIn := uint64(nR) * uint64(nC) * uint64(b.l.N) * uint64(th) * uint64(tl)
		ddrIn = min(ddrIn, haloIn)
	}
	if k == pattern.ID && b.travs != nil && !b.travs[cell.Trav].IsLinear() {
		// Blocked ID stages inputs per RC position with halo overlap —
		// the same stream shape as WD's, with the same strided-layer
		// undercut; the min keeps the bound admissible at this cell.
		haloIn := uint64(nR) * uint64(nC) * uint64(b.l.N) * uint64(th) * uint64(tl)
		ddrIn = min(ddrIn, haloIn)
	}
	ddr := ddrIn + b.dw + b.dout

	// Price through the identical Eq. 14 path as Evaluate — against the
	// cell's own derived (mapping-scaled, per-point) table — so the
	// admissibility argument holds at the float level for every backend
	// and mapping, not just the paper's. The zero Refreshes and
	// BufferWrites counts are the refresh/wear lower bounds.
	return energy.SystemTable(energy.Counts{
		MACs:           b.macs,
		BufferAccesses: buf * b.g,
		DDRAccesses:    ddr * b.g,
	}, b.tables[cell.Map*b.points+cell.Point]).Total()
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ---------------------------------------------------------------------------
// Incremental pricing.
//
// lower() above re-derives every partial term per call, even though the
// canonical enumeration order (tiling-major, kind/point/traversal/
// mapping inner) repeats most of them across neighboring candidates. A
// pricingCtx is the stateful variant each explore arena owns and binds
// as search.Problem.Bound: it factors the arithmetic into
//
//   - tilingTerms — kind-independent, invalidated when the scanned
//     tiling changes;
//   - prefixSums — per (kind, Tm, Tn), invalidated only when that
//     prefix coordinate changes;
//   - kindState — the per-(kind, tiling) feasibility/traffic products,
//     rebuilt from the two caches above;
//
// and prices the final cell through the identical energy.SystemTable
// call as lower(). Every cached quantity is an exactly-reused uint64 —
// no float enters a cache — so Lower is bit-identical to lower() by
// construction at any call order; TestIncrementalBoundBitIdentical pins
// this in canonical and randomized orders, which is what keeps
// pruned ≡ exhaustive untouched when the incremental path is on.
// ---------------------------------------------------------------------------

// kindSlots bounds the per-kind cache array of a pricing context. The
// known kinds (ID, OD, WD) index it directly; anything else takes the
// unknown-kind fast path (bound zero, exactly like lower()).
const kindSlots = 3

// prefixSums are the bound partial terms that depend only on the
// layer's (N, K, H, L) sub-shape and the candidate's (kind, Tm, Tn)
// prefix — never on M, the output geometry, the (Tr, Tc) tail, the
// accelerator config or the pricing tables. The tiling-major scan keeps
// (Tm, Tn) fixed across every (Tr, Tc) tail, so a pricing context
// recomputes them only when the prefix coordinate moves.
type prefixSums struct {
	// nN is ceil(N/Tn), the input-channel tile count.
	nN int
	// wTile is Tm·Tn·K², the per-tile weight transfer size.
	wTile uint64
	// ws is the kind's prefix-level working-set component: N·Tm·K² for
	// ID, Tn·H·L for OD, zero for WD (whose input set depends on the
	// tiling tail and lives in tilingTerms instead).
	ws uint64
}

// prefixSums computes the (kind, Tm, Tn) partial terms from scratch.
func (b *bound) prefixSums(k pattern.Kind, tm, tn int) prefixSums {
	s := prefixSums{
		nN:    ceilDiv(b.l.N, tn),
		wTile: uint64(tm) * uint64(tn) * uint64(b.l.K) * uint64(b.l.K),
	}
	switch k {
	case pattern.ID:
		s.ws = uint64(b.l.N) * uint64(tm) * uint64(b.l.K) * uint64(b.l.K)
	case pattern.OD:
		s.ws = uint64(tn) * uint64(b.l.H) * uint64(b.l.L)
	}
	return s
}

// tilingTerms are the kind-independent per-tiling partial terms — the
// remainder of lower()'s arithmetic below the (Tm, Tn) prefix.
type tilingTerms struct {
	nM, nR, nC int
	inTile     uint64 // Tn·th·tl — per-tile input transfer
	outTile    uint64 // Tm·Tr·Tc — per-tile output transfer
	outTraffic uint64 // nM·nR·nC·outTile
	inWS       uint64 // N·th·tl — WD's resident input working set
	haloIn     uint64 // nR·nC·N·th·tl — the halo-overlapped input stream
}

// kindState caches one kind's per-tiling products plus its current
// (Tm, Tn) prefix sums.
type kindState struct {
	ktValid  bool
	feasible bool
	bufG     uint64 // buffer traffic × group count
	ddrG     uint64 // compulsory DDR minimum × group count (linear cells)
	ddrBlkG  uint64 // ID under a blocked traversal; == ddrG otherwise
	pkValid  bool
	ptm, ptn int
	pk       prefixSums
}

// pricingCtx is one explore arena's incremental bound evaluator. Not
// safe for concurrent use: each exploring goroutine has its own.
type pricingCtx struct {
	b      *bound
	prefix *PrefixMemo
	t      pattern.Tiling
	tValid bool
	tt     tilingTerms
	kinds  [kindSlots]kindState
}

// reset binds the context to b (and to the caller's prefix memo, when
// Options.Prefix set one), with every cache invalidated.
func (pc *pricingCtx) reset(b *bound, prefix *PrefixMemo) {
	pc.b, pc.prefix = b, prefix
	pc.tValid = false
	for i := range pc.kinds {
		pc.kinds[i].ktValid = false
		pc.kinds[i].pkValid = false
	}
}

// Lower is bit-identical to (*bound).lower at every cell, in any call
// order.
func (pc *pricingCtx) Lower(k pattern.Kind, t pattern.Tiling, cell search.Cell) float64 {
	ki := int(k)
	if ki < 0 || ki >= kindSlots {
		// Unknown kinds bound to zero, exactly like lower(): never
		// pruned, so the exact evaluator still sees (and rejects) them.
		return 0
	}
	if !pc.tValid || t != pc.t {
		pc.rebuildTiling(t)
	}
	ks := &pc.kinds[ki]
	if !ks.ktValid {
		pc.rebuildKind(k, ks, t)
	}
	if !ks.feasible {
		return math.Inf(1)
	}
	ddr := ks.ddrG
	if k == pattern.ID && pc.b.travs != nil && !pc.b.travs[cell.Trav].IsLinear() {
		ddr = ks.ddrBlkG
	}
	// Scalar form of the reference's SystemTable(...).Total() — the hot
	// multiply-add without the Counts/Breakdown round trip. Bit-identical:
	// Total() sums (((Computing+BufferAccess)+Refresh)+OffChip)+Wear
	// left to right, the bound's Refresh and Wear counts are zero, their
	// products with the finite non-negative table entries are exactly +0,
	// and x+(+0) == x under IEEE round-to-nearest, so this expression is
	// the same sum with the +0 terms elided. macE caches the constant
	// float64(macs)·MACpJ product per layer (same operands, same bits).
	return (pc.b.macE + float64(ks.bufG)*pc.b.tables[cell.Map*pc.b.points+cell.Point].AccessPJ) +
		float64(ddr)*energy.DDRAccessPJ
}

// rebuildTiling refreshes the kind-independent terms for a new tiling
// and invalidates the per-kind products (but not the prefix sums, which
// survive until their own (Tm, Tn) coordinate moves).
func (pc *pricingCtx) rebuildTiling(t pattern.Tiling) {
	b, tt := pc.b, &pc.tt
	tt.nM = ceilDiv(b.l.M, t.Tm)
	tt.nR = ceilDiv(b.r, t.Tr)
	tt.nC = ceilDiv(b.c, t.Tc)
	// Inlined Tiling.Th/Tl ((Tr−1)·S+K, (Tc−1)·S+K): the method forms
	// take the ConvLayer by value, and that copy was a visible slice of
	// cold-compile profiles at one call per scanned tiling.
	th, tl := (t.Tr-1)*b.l.S+b.l.K, (t.Tc-1)*b.l.S+b.l.K
	tt.inTile = uint64(t.Tn) * uint64(th) * uint64(tl)
	tt.outTile = uint64(t.Tm) * uint64(t.Tr) * uint64(t.Tc)
	tt.outTraffic = uint64(tt.nM) * uint64(tt.nR) * uint64(tt.nC) * tt.outTile
	tt.inWS = uint64(b.l.N) * uint64(th) * uint64(tl)
	tt.haloIn = uint64(tt.nR) * uint64(tt.nC) * tt.inWS
	pc.t, pc.tValid = t, true
	for i := range pc.kinds {
		pc.kinds[i].ktValid = false
	}
}

// rebuildKind refreshes one kind's per-tiling products from the cached
// tiling terms and (Tm, Tn) prefix sums, refetching the latter only when
// the prefix coordinate changed.
func (pc *pricingCtx) rebuildKind(k pattern.Kind, ks *kindState, t pattern.Tiling) {
	b, tt := pc.b, &pc.tt
	if !ks.pkValid || ks.ptm != t.Tm || ks.ptn != t.Tn {
		if pc.prefix != nil {
			ks.pk = pc.prefix.lookup(b, k, t.Tm, t.Tn)
		} else {
			ks.pk = b.prefixSums(k, t.Tm, t.Tn)
		}
		ks.ptm, ks.ptn, ks.pkValid = t.Tm, t.Tn, true
	}
	pk := &ks.pk
	tiles := uint64(tt.nM) * uint64(pk.nN) * uint64(tt.nR) * uint64(tt.nC)
	var ws, buf uint64
	switch k {
	case pattern.ID:
		ws = pk.ws + tt.outTile
		buf = tiles*tt.inTile + tiles*pk.wTile + tt.outTraffic
	case pattern.WD:
		ws = tt.inWS + tt.outTile + pk.wTile
		buf = tiles*tt.inTile + tiles*pk.wTile + tt.outTraffic
	case pattern.OD:
		ws = pk.ws + pk.wTile + tt.outTile
		buf = tiles*tt.inTile + uint64(pk.nN)*uint64(tt.nM)*pk.wTile + uint64(2*pk.nN-1)*tt.outTraffic
	}
	ks.ktValid = true
	ks.feasible = ws <= b.cfg.BufferWords
	if !ks.feasible {
		return
	}
	ddrIn := b.din
	if k == pattern.WD {
		ddrIn = min(ddrIn, tt.haloIn)
	}
	ks.bufG = buf * b.g
	ks.ddrG = (ddrIn + b.dw + b.dout) * b.g
	ks.ddrBlkG = ks.ddrG
	if k == pattern.ID {
		ks.ddrBlkG = (min(b.din, tt.haloIn) + b.dw + b.dout) * b.g
	}
}

// LowerBound exposes the admissible lower bound for one candidate at
// the options' resolved operating point (the pinned point, or the
// backend's nominal corner) — the seam the backend-differential oracle
// (verify.CompareBackends) uses to assert that no chosen plan, at any
// operating point, reports less energy than the bound admits.
func LowerBound(l models.ConvLayer, cfg hw.Config, opts Options, k pattern.Kind, t pattern.Tiling) (float64, error) {
	_, points, err := ResolveBackend(cfg, opts)
	if err != nil {
		return 0, err
	}
	b := newBound(l, cfg, pointTables(points[:1]), 1, nil)
	return b.lower(k, t, search.Cell{}), nil
}
