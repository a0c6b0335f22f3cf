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
//     min(din, halo traffic). Blocked ID stages its inputs the same way,
//     so its cells under a blocked traversal take the same min.
//   - γ·Erefresh — bounded by zero. Refresh energy is never negative.
//
// Candidates whose streaming working set cannot fit the buffer bound to
// +Inf instead: Analyze's per-kind feasibility checks are a handful of
// multiplies, and an infeasible candidate can never become the search
// incumbent, so an infinite bound is vacuously admissible. It lets the
// branch-and-bound skip pricing infeasible space entirely and keeps the
// beam's exact-evaluation budget spent on candidates that can win
// (TestBoundIsAdmissibleAtEveryCell and FuzzBoundAdmissible hold every
// cell to the exact evaluator, +Inf exactly when it is infeasible).
//
// Admissibility down to the bit: the exact evaluator prices its counts
// through energy.SystemTable(...).Total(), which sums
// (((Computing+BufferAccess)+Refresh)+OffChip)+Wear left to right. The
// bound has identical MAC and buffer counts and component-wise
// smaller-or-equal DDR counts, and zero Refreshes and BufferWrites,
// whose products with the finite non-negative table entries are exactly
// +0. x+(+0) == x under IEEE round-to-nearest, so the scalar form fill
// prices with, (macE + buf·AccessPJ) + ddr·DDRAccessPJ, is that same sum
// with the +0 terms elided. float64 conversion, multiplication by a
// positive constant and addition are monotone under round-to-nearest, so
// bound ≤ Evaluate(…).Energy.Total() holds exactly, not just
// approximately — the search engine's pruning test (scan in
// search/scan.go: strictly greater than the incumbent) can therefore
// never discard the argmin or an exact tie.

import (
	"math"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/pattern"
)

// kindSlots sizes the per-kind prefix array: the known kinds (ID, OD,
// WD) index it directly, and any other kind bounds to zero — never
// pruned, so the exact evaluator still sees (and rejects) it.
const kindSlots = 3

// bound is one layer's lower-bound evaluator. All dimensions are the
// effective per-group sub-layer's (grouped convolutions run one group at
// a time); whole-layer counts scale by the group count exactly as
// Analyze does. Not safe for concurrent use: each exploring goroutine
// owns one.
type bound struct {
	l             models.ConvLayer // effective (per-group) sub-layer
	words         uint64           // buffer capacity, the working-set limit
	g             uint64           // group count scaling sub-layer traffic to the layer
	macs          uint64           // layer MACs, already group-scaled
	r, c          int              // output geometry
	macE          float64          // float64(macs)·MACpJ, the constant Eq. 14 term
	din, dw, dout uint64           // sub-layer data volumes (words)
	kinds         []pattern.Kind
	// tables are the per-(mapping, operating point) Eq. 14 pricing
	// tables, mapping-major: tables[m*points+p]. The bound prices buffer
	// traffic with the derived table's own access energy (exact, like
	// the counts) and leaves refresh and wear at their zero lower
	// bounds, non-negative under every mapping scale.
	tables []energy.Table
	points int
	// travs is the traversal axis. A blocked traversal only ever adds
	// DDR reloads and shrinks the (zero-bounded) refresh term, except
	// for ID, whose blocked input staging takes WD's halo min.
	travs  []pattern.Traversal
	prefix *PrefixMemo // Options.Prefix, or nil

	// The (Tm, Tn) prefix terms of the last tiling filled, the only
	// state kept across calls: the scan holds (Tm, Tn) across every
	// (Tr, Tc) tail. tm is zero until the first fill.
	tm, tn int
	nM     int
	pk     [kindSlots]prefixSums
}

// init points b at one layer's exploration: the patterns, the resolved
// pricing tables over points operating points, the traversal axis (nil
// for linear only) and the caller's prefix memo (nil to compute the
// prefix sums here).
func (b *bound) init(l models.ConvLayer, cfg hw.Config, kinds []pattern.Kind, tables []energy.Table, points int,
	travs []pattern.Traversal, prefix *PrefixMemo) {
	e := effectiveLayer(l)
	g := uint64(1)
	if l.Groups > 1 {
		g = uint64(l.Groups)
	}
	if travs == nil {
		travs = defaultTraversalAxis
	}
	*b = bound{
		l:      e,
		words:  cfg.BufferWords,
		g:      g,
		macs:   e.MACs() * g,
		r:      e.R(),
		c:      e.C(),
		din:    e.InputWords(),
		dw:     e.WeightWords(),
		dout:   e.OutputWords(),
		kinds:  kinds,
		tables: tables,
		points: points,
		travs:  travs,
		prefix: prefix,
	}
	b.macE = float64(b.macs) * energy.MACpJ
}

// fill writes the admissible lower bound of every candidate of tiling t
// into out, in the search engine's scan order: kind, then operating
// point, traversal and mapping. A kind whose streaming working set
// cannot fit the buffer (Analyze would report it infeasible) bounds to
// +Inf at every cell. The tiling's terms and each kind's working set and
// traffic are worked out once; each cell then costs one multiply-add.
func (b *bound) fill(t pattern.Tiling, out []float64) {
	if t.Tm != b.tm || t.Tn != b.tn {
		b.tm, b.tn = t.Tm, t.Tn
		b.nM = ceilDiv(b.l.M, t.Tm)
		for _, k := range b.kinds {
			if uint(k) >= kindSlots {
				continue
			}
			if b.prefix != nil {
				b.pk[k] = b.prefix.lookup(b, k, t.Tm, t.Tn)
			} else {
				b.pk[k] = b.prefixSums(k, t.Tm, t.Tn)
			}
		}
	}
	nR, nC := ceilDiv(b.r, t.Tr), ceilDiv(b.c, t.Tc)
	// Inlined Tiling.Th/Tl ((Tr−1)·S+K, (Tc−1)·S+K): the method forms
	// take the ConvLayer by value, once per filled tiling.
	th, tl := (t.Tr-1)*b.l.S+b.l.K, (t.Tc-1)*b.l.S+b.l.K
	inTile := uint64(t.Tn) * uint64(th) * uint64(tl)
	outTile := uint64(t.Tm) * uint64(t.Tr) * uint64(t.Tc)
	outTraffic := uint64(b.nM) * uint64(nR) * uint64(nC) * outTile
	inWS := uint64(b.l.N) * uint64(th) * uint64(tl) // WD's resident input set
	haloIn := uint64(nR) * uint64(nC) * inWS        // the halo-overlapped input stream

	maps := len(b.tables) / b.points
	n := b.points * len(b.travs) * maps
	for i, k := range b.kinds {
		cells := out[i*n : (i+1)*n]
		if uint(k) >= kindSlots {
			clear(cells)
			continue
		}
		// Analyze's per-kind streaming working sets (the Feasible
		// predicates) and buffer traffic, on the effective sub-layer.
		pk := &b.pk[k]
		tiles := uint64(b.nM) * uint64(pk.nN) * uint64(nR) * uint64(nC)
		var ws, buf uint64
		switch k {
		case pattern.ID:
			ws = pk.ws + outTile
			buf = tiles*inTile + tiles*pk.wTile + outTraffic
		case pattern.WD:
			ws = inWS + outTile + pk.wTile
			buf = tiles*inTile + tiles*pk.wTile + outTraffic
		case pattern.OD:
			ws = pk.ws + pk.wTile + outTile
			// Weights re-read once per (n, m) pass; outputs accumulate
			// read-modify-write across the nN input passes.
			buf = tiles*inTile + uint64(pk.nN)*uint64(b.nM)*pk.wTile + uint64(2*pk.nN-1)*outTraffic
		}
		if ws > b.words {
			for j := range cells {
				cells[j] = math.Inf(1)
			}
			continue
		}
		ddrIn, blkIn := b.din, b.din
		switch k {
		case pattern.WD:
			ddrIn = min(ddrIn, haloIn)
			blkIn = ddrIn
		case pattern.ID:
			blkIn = min(blkIn, haloIn)
		}
		bufG := float64(buf * b.g)
		ddrE := float64((ddrIn+b.dw+b.dout)*b.g) * energy.DDRAccessPJ
		blkE := float64((blkIn+b.dw+b.dout)*b.g) * energy.DDRAccessPJ
		j := 0
		for p := 0; p < b.points; p++ {
			for _, tr := range b.travs {
				ddr := ddrE
				if !tr.IsLinear() {
					ddr = blkE
				}
				for m := 0; m < maps; m++ {
					// The conversion rounds the product before the sum, so
					// no architecture fuses it into a multiply-add.
					cells[j] = (b.macE + float64(bufG*b.tables[m*b.points+p].AccessPJ)) + ddr
					j++
				}
			}
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// prefixSums are the bound partial terms that depend only on the
// layer's (N, K, H, L) sub-shape and the candidate's (kind, Tm, Tn)
// prefix — never on M, the output geometry, the (Tr, Tc) tail, the
// accelerator config or the pricing tables, which is what lets a
// PrefixMemo share them across layers.
type prefixSums struct {
	// nN is ceil(N/Tn), the input-channel tile count.
	nN int
	// wTile is Tm·Tn·K², the per-tile weight transfer size.
	wTile uint64
	// ws is the kind's prefix-level working-set component: N·Tm·K² for
	// ID, Tn·H·L for OD, zero for WD (whose input set depends on the
	// tiling tail).
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

// LowerBound exposes the admissible lower bound for one candidate at
// the options' resolved operating point (the pinned point, or the
// backend's nominal corner), linear traversal and row-major mapping —
// the seam the backend-differential oracle (verify.CompareBackends)
// uses to assert that no chosen plan, at any operating point, reports
// less energy than the bound admits.
func LowerBound(l models.ConvLayer, cfg hw.Config, opts Options, k pattern.Kind, t pattern.Tiling) (float64, error) {
	_, points, err := ResolveBackend(cfg, opts)
	if err != nil {
		return 0, err
	}
	var b bound
	b.init(l, cfg, []pattern.Kind{k}, pointTables(points[:1]), 1, nil, nil)
	var out [1]float64
	b.fill(t, out[:])
	return out[0], nil
}
