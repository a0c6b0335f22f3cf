package sched

// Layer-shape memoization. Real networks repeat identical layer shapes —
// ResNet-50's bottleneck blocks and GoogLeNet's inception branches reuse
// a handful of shapes dozens of times — and the Fig. 13 exploration
// depends only on (layer shape, accelerator config, scheduling options),
// never on the layer's name or position. Every compile dedups its own
// repeated shapes on that triple without any table (compile.go); a
// shared Memo keys completed per-layer explorations on it so each
// distinct shape is explored once per process.
//
// Correctness: pattern.Analyze reconstructs Analysis.Layer equal to its
// input layer, and every other LayerPlan field is a pure function of the
// memo key, so a hit only needs Analysis.Layer patched to the requesting
// layer's identity (Name/Stage) to be byte-identical to a fresh
// exploration. Errors are never cached: their messages embed layer
// names, and a transient failure must not poison every same-shaped
// layer.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strconv"
	"sync"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/sched/search"
)

// DefaultMemoCapacity bounds a Memo's entry count when NewMemo is given
// no explicit capacity. Distinct layer shapes number in the dozens per
// network, so 4096 comfortably holds a whole model zoo while bounding a
// shared long-lived memo against hostile shape streams.
const DefaultMemoCapacity = 4096

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
// shared entry would break the hit-patches-identity-only contract
// (TestMemoNearDuplicateShapesStayDistinct pins this boundary; the
// sound way to profit from those branches is the bound-level PrefixMemo
// in prefix.go).
type memoKey [sha256.Size]byte

// memoEntry is one in-flight or completed exploration. The owner holds
// wg at one until it finishes; ok (written and read under the memo's
// mutex, or after wg.Wait) reports whether lp/stats are valid. Failed
// entries are removed from the table before the owner releases wg, so
// waiters observing ok == false recompute individually.
type memoEntry struct {
	wg    sync.WaitGroup
	lp    LayerPlan
	stats search.Stats
	ok    bool
}

// Memo caches per-layer exploration results across compiles — ranad
// shares one server-wide. Safe for concurrent use. The zero value is
// not usable; call NewMemo.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	cap     int
	hits    uint64
	misses  uint64
}

// NewMemo returns a memo bounded to capacity entries (<= 0 selects
// DefaultMemoCapacity). When the table is full, new shapes are explored
// without being recorded — the memo degrades to a no-op for them, never
// evicts; each compile's in-compile dedup still explores a shape it
// repeats only once.
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoCapacity
	}
	return &Memo{entries: make(map[memoKey]*memoEntry), cap: capacity}
}

// MemoStats is a point-in-time snapshot of a memo's effectiveness.
type MemoStats struct {
	// Hits counts layers served without exploring: lookups served from
	// a completed (or in-flight) entry, plus the layers a compile's
	// in-compile dedup filled from a same-shaped layer.
	Hits uint64
	// Misses counts lookups that had to explore.
	Misses uint64
	// Entries is the current table size.
	Entries int
}

// Stats snapshots the memo counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries)}
}

// appendSignature appends the canonical options form the memo keys on
// to dst — the same resolution rules as the serving cache hashing
// (resolved strategy spelled out, beam width only under beam, effective
// guard band, controller by name, default backend spelling folded for
// the configuration's buffer technology) so equivalent spellings
// collapse onto one entry. Parallelism, Memo, Prefix, DisableMemo,
// DisableIncremental and Check are deliberately absent: none of them
// changes a layer's resulting plan bytes. One strconv.Append* call per
// component keeps the compile path's (interned) build allocation-free;
// %g floats spell identically to the historical fmt.Fprintf form (both
// emit the shortest round-trip representation).
func (o Options) appendSignature(dst []byte, tech energy.BufferTech) []byte {
	for _, k := range o.Patterns {
		dst = append(dst, k.String()...)
		dst = append(dst, ',')
	}
	dst = append(dst, "|refresh="...)
	dst = strconv.AppendInt(dst, int64(o.RefreshInterval), 10)
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

// peek returns the completed entry for key, patched to l's identity,
// without blocking: in-flight entries and misses return false and the
// caller takes the exploring path (exploreEnv), which waits on
// in-flight owners and keeps the hit accounting there. This is the
// warm compile path's allocation-free fast lane — no goroutine, no
// closure, no channel.
func (m *Memo) peek(key memoKey, l models.ConvLayer) (LayerPlan, bool) {
	if m == nil {
		return LayerPlan{}, false
	}
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok || !e.ok {
		m.mu.Unlock()
		return LayerPlan{}, false
	}
	m.hits++
	lp := e.lp
	m.mu.Unlock()
	lp.Analysis.Layer = l
	return lp, true
}

// memoMode classifies one acquire: served from an entry, saturated, or
// owned (the caller must explore and publish through fillEnv).
type memoMode int

const (
	memoWait memoMode = iota // wait on the returned entry
	memoFull                 // table saturated: explore without recording
	memoOwn                  // caller owns the returned entry
)

// acquire looks the key up and either returns an existing entry to wait
// on (counted as a hit), reports saturation, or installs a fresh owned
// entry (counted as a miss).
func (m *Memo) acquire(key memoKey) (*memoEntry, memoMode) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.hits++
		m.mu.Unlock()
		return e, memoWait
	}
	if len(m.entries) >= m.cap {
		// Full: explore without recording, and count no miss — nothing
		// was added. Same-shaped layers of the caller's compile still
		// explore once (the in-compile dedup counts their hits).
		m.mu.Unlock()
		return nil, memoFull
	}
	e := &memoEntry{}
	e.wg.Add(1)
	m.entries[key] = e
	m.misses++
	m.mu.Unlock()
	return e, memoOwn
}

// await blocks on an in-flight (or completed) entry and returns the
// patched plan. ok == false means the owner failed and withdrew the
// entry — the caller recomputes individually, so one layer's error
// (whose message names that layer) never smears across same-shaped
// layers.
func (e *memoEntry) await(l models.ConvLayer) (LayerPlan, search.Stats, bool) {
	e.wg.Wait()
	if !e.ok {
		return LayerPlan{}, search.Stats{}, false
	}
	lp := e.lp
	lp.Analysis.Layer = l
	return lp, e.stats, true
}

// exploreEnv returns the layer's plan through the memo: a completed
// entry is returned with the layer identity patched in; otherwise the
// caller explores through the compile's environment and publishes the
// result for same-shaped layers of other compiles. The key is
// prebuilt, and no compute closure is involved, which is what keeps
// the cold optimized path's allocations below the baseline's. A nil
// memo degenerates to a plain exploration.
func (m *Memo) exploreEnv(key memoKey, l models.ConvLayer, cfg hw.Config, opts Options,
	env compileEnv) (LayerPlan, search.Stats, bool, error) {
	if m == nil {
		lp, stats, err := exploreLayerEnv(l, cfg, opts, env)
		return lp, stats, false, err
	}
	e, mode := m.acquire(key)
	switch mode {
	case memoWait:
		if lp, stats, ok := e.await(l); ok {
			return lp, stats, true, nil
		}
	case memoOwn:
		lp, stats, err := m.fillEnv(key, e, l, cfg, opts, env)
		return lp, stats, false, err
	}
	lp, stats, err := exploreLayerEnv(l, cfg, opts, env)
	return lp, stats, false, err
}

// fillEnv runs the owner's exploration and publishes (or withdraws) the
// entry. The deferred cleanup also fires on panic, so a poisoned
// candidate cannot leave same-shaped waiters blocked forever. Results
// are published under m.mu so peek can read completed entries without
// waiting.
func (m *Memo) fillEnv(key memoKey, e *memoEntry, l models.ConvLayer, cfg hw.Config,
	opts Options, env compileEnv) (lp LayerPlan, stats search.Stats, err error) {
	defer m.finish(key, e)
	lp, stats, err = exploreLayerEnv(l, cfg, opts, env)
	if err != nil {
		return lp, stats, err
	}
	m.publish(e, lp, stats)
	return lp, stats, nil
}

// publish marks the entry complete under m.mu (peek's visibility).
func (m *Memo) publish(e *memoEntry, lp LayerPlan, stats search.Stats) {
	m.mu.Lock()
	e.lp, e.stats, e.ok = lp, stats, true
	m.mu.Unlock()
}

// finish withdraws a failed entry and releases its waiters.
func (m *Memo) finish(key memoKey, e *memoEntry) {
	m.mu.Lock()
	if !e.ok {
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
