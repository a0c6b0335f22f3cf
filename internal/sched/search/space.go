package search

import (
	"rana/internal/pattern"
)

// Space streams a tiling space in canonical order: Next returns the
// next tiling, or false when the space is exhausted. Run drains it once.
type Space interface {
	Next() (pattern.Tiling, bool)
}

// Axis returns the candidate tile sizes along one axis of extent dim,
// ascending: powers of two up to dim, the PE-array width, and dim
// itself.
func Axis(dim, array int) []int { return AppendAxis(nil, dim, array) }

// AppendAxis is Axis writing into dst (which may be a reused scratch
// slice), so steady-state space construction allocates nothing once the
// scratch has grown to size. The output is identical to Axis: the
// sorted deduplicated union of the powers of two below dim, the array
// width (when it fits), and dim itself.
func AppendAxis(dst []int, dim, array int) []int {
	start := len(dst)
	// Powers of two below dim arrive already ascending and distinct.
	for v := 1; v < dim; v *= 2 {
		dst = append(dst, v)
	}
	dst = insertSorted(dst, start, dim)
	if array <= dim {
		dst = insertSorted(dst, start, array)
	}
	return dst
}

// insertSorted inserts v into the ascending run dst[start:], keeping it
// sorted and deduplicated.
func insertSorted(dst []int, start, v int) []int {
	i := start
	for i < len(dst) && dst[i] < v {
		i++
	}
	if i < len(dst) && dst[i] == v {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[i+1:], dst[i:])
	dst[i] = v
	return dst
}

// Product streams the ⟨Tm, Tn, Tr, Tc⟩ cross product of four per-axis
// candidate lists without materializing it, in the historical nesting
// order (Tm outermost, Tc innermost).
type Product struct {
	tms, tns, trs, tcs []int
	i, j, k, l         int
}

// NewProduct returns the cross-product space of the four axis lists.
func NewProduct(tms, tns, trs, tcs []int) *Product {
	return &Product{tms: tms, tns: tns, trs: trs, tcs: tcs}
}

// Init re-points an existing (typically pooled) Product at new axis
// lists and rewinds it — NewProduct without the allocation.
func (p *Product) Init(tms, tns, trs, tcs []int) {
	p.tms, p.tns, p.trs, p.tcs = tms, tns, trs, tcs
	p.Reset()
}

// Size is the number of tilings the product streams.
func (p *Product) Size() int {
	return len(p.tms) * len(p.tns) * len(p.trs) * len(p.tcs)
}

// Reset rewinds the stream.
func (p *Product) Reset() { p.i, p.j, p.k, p.l = 0, 0, 0, 0 }

// Next implements Space.
func (p *Product) Next() (pattern.Tiling, bool) {
	if p.i >= len(p.tms) || p.Size() == 0 {
		return pattern.Tiling{}, false
	}
	t := pattern.Tiling{Tm: p.tms[p.i], Tn: p.tns[p.j], Tr: p.trs[p.k], Tc: p.tcs[p.l]}
	p.l++
	if p.l == len(p.tcs) {
		p.l = 0
		p.k++
		if p.k == len(p.trs) {
			p.k = 0
			p.j++
			if p.j == len(p.tns) {
				p.j = 0
				p.i++
			}
		}
	}
	return t, true
}

// Slice is a Space over a fixed tiling list — the single-point space of
// a pinned tiling, or any precomputed reduction order.
type Slice struct {
	ts []pattern.Tiling
	i  int
}

// NewSlice returns a Space streaming ts in order.
func NewSlice(ts []pattern.Tiling) *Slice { return &Slice{ts: ts} }

// Init re-points an existing (typically pooled) Slice at a new tiling
// list and rewinds it — NewSlice without the allocation.
func (s *Slice) Init(ts []pattern.Tiling) {
	s.ts = ts
	s.Reset()
}

// Size is the number of tilings the slice streams.
func (s *Slice) Size() int { return len(s.ts) }

// Reset rewinds the stream.
func (s *Slice) Reset() { s.i = 0 }

// Next implements Space.
func (s *Slice) Next() (pattern.Tiling, bool) {
	if s.i >= len(s.ts) {
		return pattern.Tiling{}, false
	}
	t := s.ts[s.i]
	s.i++
	return t, true
}
