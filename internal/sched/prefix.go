package sched

// The opt-in bound prefix-sum memo. prefixSums reads exactly (kind, Tm,
// Tn) and the layer's (N, K, H, L) sub-shape — never M, the output
// geometry, the tiling tail, the config or the pricing tables — so a
// memo keyed on precisely those inputs is sound by construction. No
// compile uses one unless Options.Prefix installs it: each exploring
// bound already keeps its (Tm, Tn) prefix terms while the scan stays on
// that coordinate, and a locked map lookup costs about what the integer
// arithmetic it would replace does.

import (
	"sync"
	"sync/atomic"

	"rana/internal/pattern"
)

// DefaultPrefixCapacity bounds a PrefixMemo's entry count when
// NewPrefixMemo is given no explicit capacity. One layer contributes
// |Tm axis| × |Tn axis| × kinds entries (a few hundred); 1<<16 holds a
// model zoo's worth while bounding a shared long-lived memo against
// hostile shape streams.
const DefaultPrefixCapacity = 1 << 16

// prefixKey identifies one prefix-sum computation: the candidate's
// (kind, Tm, Tn) prefix coordinate plus every layer-shape field
// prefixSums reads. All effective (per-group) values, like the bound's.
type prefixKey struct {
	kind   pattern.Kind
	tm, tn int
	n, k   int // input channels, kernel size
	h, l   int // input feature-map height and width (OD's working set)
}

// PrefixMemo caches bound prefix sums at the (kind, Tm, Tn) level,
// shared by every compile whose Options.Prefix points at it. Safe for
// concurrent use. The zero value is not usable; call NewPrefixMemo.
type PrefixMemo struct {
	mu      sync.RWMutex
	entries map[prefixKey]prefixSums
	cap     int
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewPrefixMemo returns a prefix memo bounded to capacity entries
// (<= 0 selects DefaultPrefixCapacity). When the table is full, new
// prefixes are computed without being recorded — the memo degrades to
// a no-op, never evicts.
func NewPrefixMemo(capacity int) *PrefixMemo {
	if capacity <= 0 {
		capacity = DefaultPrefixCapacity
	}
	return &PrefixMemo{entries: make(map[prefixKey]prefixSums), cap: capacity}
}

// PrefixStats is a point-in-time snapshot of a prefix memo's
// effectiveness.
type PrefixStats struct {
	// Hits counts lookups served from a cached entry.
	Hits uint64
	// Misses counts lookups that had to compute (and, below capacity,
	// record) the sums.
	Misses uint64
	// Entries is the current table size.
	Entries int
}

// Stats snapshots the memo counters.
func (p *PrefixMemo) Stats() PrefixStats {
	p.mu.RLock()
	n := len(p.entries)
	p.mu.RUnlock()
	return PrefixStats{Hits: p.hits.Load(), Misses: p.misses.Load(), Entries: n}
}

// lookup returns the prefix sums for (kind, tm, tn) against b's layer
// shape, computing and recording them on a miss. Entries are pure
// integer functions of their key, so concurrent duplicate computation
// is harmless (both writers store the identical value).
func (p *PrefixMemo) lookup(b *bound, k pattern.Kind, tm, tn int) prefixSums {
	key := prefixKey{kind: k, tm: tm, tn: tn, n: b.l.N, k: b.l.K, h: b.l.H, l: b.l.L}
	p.mu.RLock()
	s, ok := p.entries[key]
	p.mu.RUnlock()
	if ok {
		p.hits.Add(1)
		return s
	}
	p.misses.Add(1)
	s = b.prefixSums(k, tm, tn)
	p.mu.Lock()
	if len(p.entries) < p.cap {
		p.entries[key] = s
	}
	p.mu.Unlock()
	return s
}
