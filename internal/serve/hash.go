package serve

// Canonical request hashing. The cache key is computed over the
// *resolved* request — the native (Network, Config, Options) triple
// after defaults are applied — not over the request bytes, so spelling
// differences (field order, named model vs. explicit layers, omitted
// defaults vs. spelled-out defaults) collapse onto one key. The
// canonical form is a JSON document of ordered scalar fields; SHA-256
// of it is the key. A schedule request's (Config, Options) part is
// sched.AppendCanonical, the same encoder the layer memo keys on.
//
// Every request pays for its key, cache hits included, so the document
// is appended straight from the native values into pooled scratch: no
// intermediate struct, no reflection. Its bytes are those json.Marshal
// gives the tagged canonicalRequest struct in hash_ref_test.go — same
// field order, same omitempty rules, encoding/json's string and float
// spellings — which FuzzCanonicalKey holds it to. The digests are pinned
// by TestCanonicalKeysPinned: the plan store is indexed by them, so a
// moved key orphans every stored plan.

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"hash"
	"strconv"
	"sync"

	"rana/internal/hw"
	"rana/internal/jsonenc"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

// scratch pools the request path's encoding buffers: canonical keys and
// schedule response bodies.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBytes caps a buffer returned to scratch. A custom network of
// a few thousand layers grows one well past it, and pooling that buffer
// would pin the memory for as long as the pool keeps it.
const maxPooledBytes = 64 << 10

func getScratch() *[]byte { return scratch.Get().(*[]byte) }

// putScratch recycles b, the grown contents of bp, unless it outgrew
// maxPooledBytes. Nothing may reference b afterwards.
func putScratch(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBytes {
		return
	}
	*bp = b[:0]
	scratch.Put(bp)
}

// scheduleKey is the cache key of a resolved /v1/schedule request
// served under op: "schedule" for the full search, "schedule-degraded"
// for the uniform-fallback rung and "schedule-budget-fallback" for the
// error-budget rung (a pinned point broke a per-layer budget and the
// nominal corner was substituted). The rungs' bodies carry the degraded
// marker and the cache guarantees byte-identical hits, so the op string,
// not just the options, must separate them from a full-search entry even
// when the resolved options coincide.
func scheduleKey(op string, net models.Network, cfg hw.Config, opts sched.Options) string {
	bp := getScratch()
	b, head := keyHead((*bp)[:0], op, &net)
	return hashKey(bp, head, appendScheduleTail(b, cfg, opts))
}

// compileKey is the cache key of a resolved /v1/compile request. The
// resolved Stage 2 strategy is part of the key: compilations under
// different strategies may legitimately produce different plans.
func compileKey(net models.Network, strategy search.Strategy) string {
	bp := getScratch()
	b, head := keyHead((*bp)[:0], "compile", &net)
	return hashKey(bp, head, appendCompileTail(b, strategy))
}

// evaluateKey is the cache key of a resolved /v1/evaluate request.
// backend arrives already normalized (default adapter → ""), point
// verbatim, so the legacy (design, network) requests keep their keys.
func evaluateKey(design string, net models.Network, backend, point string) string {
	bp := getScratch()
	b, head := keyHead((*bp)[:0], "evaluate", &net)
	return hashKey(bp, head, appendEvaluateTail(b, design, backend, point))
}

// hashKey returns the hex SHA-256 of a canonical form and recycles its
// scratch. b is the form after head, the SHA-256 state of a zoo
// network's key head (keyHead); a nil head means b is the whole form.
func hashKey(bp *[]byte, head []byte, b []byte) string {
	var sum [sha256.Size]byte
	if head == nil {
		sum = sha256.Sum256(b)
	} else {
		h := headHashes.Get().(hash.Hash)
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(head); err != nil {
			panic(err) // the state came from the same hash's MarshalBinary
		}
		h.Write(b)
		// The digest is appended to the scratch: a stack array passed
		// through the interface would escape to the heap.
		b = h.Sum(b)
		copy(sum[:], b[len(b)-sha256.Size:])
		headHashes.Put(h)
	}
	putScratch(bp, b)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}

// headHashes pools the SHA-256 states a zoo key's hash resumes from.
var headHashes = sync.Pool{New: func() any { return sha256.New() }}

// keyHead opens the canonical form of op on net. For a zoo network it
// appends nothing and returns the SHA-256 state after the network's
// head, hashed once per process (zooHeads); otherwise it appends the
// head and returns a nil state.
func keyHead(b []byte, op string, net *models.Network) (form, state []byte) {
	if head := zooHead(op, net); head != nil {
		return b, head
	}
	return appendKeyHead(b, op, *net), nil
}

// zooKeyOps are the ops whose zoo heads are hashed ahead.
var zooKeyOps = []string{"schedule", "schedule-degraded", "schedule-budget-fallback", "compile", "evaluate"}

// zooHeads is, for each zoo network as models.ByName returns it, the
// SHA-256 state after each zoo key op's head, so a request on a named
// model neither formats nor hashes its layers. Empty if the hash cannot
// save its state.
var zooHeads = sync.OnceValue(func() []zooKeyHeads {
	var heads []zooKeyHeads
	for _, b := range models.Benchmarks() {
		net, _ := models.ByName(b.Name)
		z := zooKeyHeads{net: net, states: map[string][]byte{}}
		for _, op := range zooKeyOps {
			h := sha256.New()
			h.Write(appendKeyHead(nil, op, net))
			m, ok := h.(encoding.BinaryMarshaler)
			if !ok {
				return nil
			}
			state, err := m.MarshalBinary()
			if err != nil {
				return nil
			}
			z.states[op] = state
		}
		heads = append(heads, z)
	}
	return heads
})

// zooKeyHeads is one zoo network's hashed key heads, by op.
type zooKeyHeads struct {
	net    models.Network
	states map[string][]byte
}

// zooHead returns the SHA-256 state after op's head on net when net is
// a zoo network as models.ByName returns it, nil otherwise. ByName hands
// every caller the zoo's one Layers slice, read-only by contract, so a
// network with the zoo entry's name whose layers are that slice is the
// entry.
func zooHead(op string, net *models.Network) []byte {
	if len(net.Layers) == 0 {
		return nil
	}
	heads := zooHeads()
	for i := range heads {
		z := &heads[i]
		if &net.Layers[0] == &z.net.Layers[0] && len(net.Layers) == len(z.net.Layers) && net.Name == z.net.Name {
			return z.states[op]
		}
	}
	return nil
}

// appendScheduleTail closes a schedule request's canonical form after
// its head: the accelerator configuration, then the options.
func appendScheduleTail(b []byte, cfg hw.Config, opts sched.Options) []byte {
	return append(sched.AppendCanonical(b, &cfg, &opts), '}')
}

// appendCompileTail closes a compile request's canonical form after its
// head: the resolved strategy (compile always runs the framework's own
// platform and options).
func appendCompileTail(b []byte, strategy search.Strategy) []byte {
	b = jsonenc.OmitString(b, `,"search":`, string(strategy.Resolve()))
	return append(b, '}')
}

// appendEvaluateTail closes an evaluate request's canonical form after
// its head: the backend axis and the design name, which fully
// determines the scheduling options.
func appendEvaluateTail(b []byte, design, backend, point string) []byte {
	b = jsonenc.OmitString(b, `,"backend":`, backend)
	b = jsonenc.OmitString(b, `,"operating_point":`, point)
	b = jsonenc.OmitString(b, `,"design":`, design)
	return append(b, '}')
}

// appendKeyHead opens the document with the op and the network. The
// Stage field is presentation-only (it groups report rows) and is
// excluded: two networks differing only in stage labels schedule
// identically. An empty layer list spells null, as a nil slice marshals.
func appendKeyHead(b []byte, op string, net models.Network) []byte {
	b = jsonenc.String(append(b, `{"op":`...), op)
	b = jsonenc.String(append(b, `,"network":`...), net.Name)
	b = append(b, `,"layers":`...)
	if len(net.Layers) == 0 {
		return append(b, "null"...)
	}
	for i := range net.Layers {
		l := &net.Layers[i]
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = jsonenc.String(append(b, `{"name":`...), l.Name)
		b = strconv.AppendInt(append(b, `,"n":`...), int64(l.N), 10)
		b = strconv.AppendInt(append(b, `,"h":`...), int64(l.H), 10)
		b = strconv.AppendInt(append(b, `,"l":`...), int64(l.L), 10)
		b = strconv.AppendInt(append(b, `,"m":`...), int64(l.M), 10)
		b = strconv.AppendInt(append(b, `,"k":`...), int64(l.K), 10)
		b = strconv.AppendInt(append(b, `,"s":`...), int64(l.S), 10)
		b = strconv.AppendInt(append(b, `,"p":`...), int64(l.P), 10)
		b = strconv.AppendInt(append(b, `,"groups":`...), int64(l.Groups), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}
