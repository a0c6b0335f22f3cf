package serve

// Canonical request hashing. The cache key is computed over the
// *resolved* request — the native (Network, Config, Options) triple
// after defaults are applied — not over the request bytes, so spelling
// differences (field order, named model vs. explicit layers, omitted
// defaults vs. spelled-out defaults) collapse onto one key. The
// canonical form is a JSON document of ordered scalar fields; SHA-256
// of it is the key.
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
	"encoding/hex"
	"sort"
	"strconv"
	"sync"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/jsonenc"
	"rana/internal/mem"
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
	return hashKey(bp, appendScheduleKey((*bp)[:0], op, net, cfg, opts))
}

// compileKey is the cache key of a resolved /v1/compile request. The
// resolved Stage 2 strategy is part of the key: compilations under
// different strategies may legitimately produce different plans.
func compileKey(net models.Network, strategy search.Strategy) string {
	bp := getScratch()
	return hashKey(bp, appendCompileKey((*bp)[:0], net, strategy))
}

// evaluateKey is the cache key of a resolved /v1/evaluate request.
// backend arrives already normalized (default adapter → ""), point
// verbatim, so the legacy (design, network) requests keep their keys.
func evaluateKey(design string, net models.Network, backend, point string) string {
	bp := getScratch()
	return hashKey(bp, appendEvaluateKey((*bp)[:0], design, net, backend, point))
}

// hashKey returns the hex SHA-256 of the canonical form b and recycles
// b's scratch.
func hashKey(bp *[]byte, b []byte) string {
	sum := sha256.Sum256(b)
	putScratch(bp, b)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}

// appendScheduleKey appends the canonical form of a schedule request:
// the network, then the accelerator configuration, then the options.
func appendScheduleKey(b []byte, op string, net models.Network, cfg hw.Config, opts sched.Options) []byte {
	b = appendKeyHead(b, op, net)
	b = appendConfig(b, cfg)
	b = appendOptions(b, opts, cfg.BufferTech)
	return append(b, '}')
}

// appendCompileKey appends the canonical form of a compile request: the
// network and the resolved strategy (compile always runs the
// framework's own platform and options).
func appendCompileKey(b []byte, net models.Network, strategy search.Strategy) []byte {
	b = appendKeyHead(b, "compile", net)
	b = omitString(b, `,"search":`, string(strategy.Resolve()))
	return append(b, '}')
}

// appendEvaluateKey appends the canonical form of an evaluate request:
// the network, the backend axis and the design name, which fully
// determines the scheduling options.
func appendEvaluateKey(b []byte, design string, net models.Network, backend, point string) []byte {
	b = appendKeyHead(b, "evaluate", net)
	b = omitString(b, `,"backend":`, backend)
	b = omitString(b, `,"operating_point":`, point)
	b = omitString(b, `,"design":`, design)
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

// appendConfig appends the accelerator configuration, every field
// omitted at its zero value.
func appendConfig(b []byte, cfg hw.Config) []byte {
	b = omitString(b, `,"config_name":`, cfg.Name)
	b = omitInt(b, `,"array_m":`, int64(cfg.ArrayM))
	b = omitInt(b, `,"array_n":`, int64(cfg.ArrayN))
	b = omitInt(b, `,"mapping":`, int64(cfg.Mapping))
	b = omitFloat(b, `,"frequency_hz":`, cfg.FrequencyHz)
	b = omitInt(b, `,"local_input":`, int64(cfg.LocalInput))
	b = omitInt(b, `,"local_output":`, int64(cfg.LocalOutput))
	b = omitInt(b, `,"local_weight":`, int64(cfg.LocalWeight))
	if cfg.BufferWords != 0 {
		b = strconv.AppendUint(append(b, `,"buffer_words":`...), cfg.BufferWords, 10)
	}
	b = omitInt(b, `,"buffer_tech":`, int64(cfg.BufferTech))
	return omitInt(b, `,"bank_words":`, int64(cfg.BankWords))
}

// appendOptions appends the scheduling options in resolved form. tech
// is the configuration's buffer technology, which the default backend's
// explicit spelling normalizes against.
func appendOptions(b []byte, opts sched.Options, tech energy.BufferTech) []byte {
	if len(opts.Patterns) > 0 {
		b = append(b, `,"patterns":"`...)
		from := len(b)
		for _, k := range opts.Patterns {
			b = append(append(b, k.String()...), ',')
		}
		b = jsonenc.EndString(b, from)
	}
	b = omitInt(b, `,"refresh_ns":`, int64(opts.RefreshInterval))
	if opts.Controller != nil {
		b = omitString(b, `,"controller":`, opts.Controller.Name())
	}
	if opts.NaturalTiling {
		b = append(b, `,"natural_tiling":true`...)
	}
	b = omitFloat(b, `,"retention_guard":`, opts.Guard())
	if t := opts.FixedTiling; t != nil {
		b = strconv.AppendInt(append(b, `,"fixed_tiling":"`...), int64(t.Tm), 10)
		b = strconv.AppendInt(append(b, ','), int64(t.Tn), 10)
		b = strconv.AppendInt(append(b, ','), int64(t.Tr), 10)
		b = strconv.AppendInt(append(b, ','), int64(t.Tc), 10)
		b = append(b, '"')
	}
	// The strategy is spelled out resolved, so a request pinning the
	// default and one omitting it share a key; the beam width counts
	// only under the beam.
	strategy := opts.Search.Resolve()
	b = omitString(b, `,"search":`, string(strategy))
	if strategy == search.Beam {
		b = omitInt(b, `,"beam_width":`, int64(search.EffectiveWidth(opts.BeamWidth)))
	}
	// The default technology adapter's explicit spelling collapses onto
	// the empty string, so legacy and explicit-default requests share an
	// entry. The operating point stays verbatim: pinning "nominal"
	// collapses the point axis, a different computation on multi-point
	// backends than leaving it open.
	b = omitString(b, `,"backend":`, mem.NormalizeName(opts.Backend, tech))
	b = omitString(b, `,"operating_point":`, opts.OperatingPoint)
	b = omitFloat(b, `,"error_budget":`, opts.ErrorBudget)
	// Axis specs in canonical spelling: default-only spellings ("",
	// "linear", "row-major,row-major") normalize to the empty string and
	// out of the key, so legacy requests keep their entries.
	b = omitString(b, `,"traversal":`, canonicalSpec(opts.Traversal, sched.CanonicalTraversalSpec))
	b = omitString(b, `,"map_policy":`, canonicalSpec(opts.Mapping, sched.CanonicalMappingSpec))
	// The per-layer error budgets as sorted "name=rate," pairs. Today
	// they are a pure function of fields already in the key (network,
	// layers, the fixed admission constraint), so this is redundancy,
	// kept so a future per-request constraint cannot silently collide
	// keys. Requests off the approximate axis carry no budgets.
	if len(opts.LayerBudgets) > 0 {
		names := make([]string, 0, len(opts.LayerBudgets))
		for name := range opts.LayerBudgets {
			names = append(names, name)
		}
		sort.Strings(names)
		b = append(b, `,"layer_budgets":"`...)
		from := len(b)
		for _, name := range names {
			b = append(append(b, name...), '=')
			b = append(strconv.AppendFloat(b, opts.LayerBudgets[name], 'g', -1, 64), ',')
		}
		b = jsonenc.EndString(b, from)
	}
	return b
}

// canonicalSpec is an axis spec's canonical spelling. Options are
// validated before hashing, so the spec always parses on a request; the
// fallback keeps the raw spec, which can only miss a collision, never
// make a wrong one.
func canonicalSpec(spec string, canonical func(string) (string, error)) string {
	if spec == "" {
		return ""
	}
	if c, err := canonical(spec); err == nil {
		return c
	}
	return spec
}

// omitString appends key and v as a JSON string unless v is empty; key
// carries the separator and the quoted field name, e.g. `,"search":`.
func omitString(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return jsonenc.String(append(b, key...), v)
}

// omitInt appends key and v unless v is zero.
func omitInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// omitFloat appends key and v unless v is zero.
func omitFloat(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	b, ok := jsonenc.Float(append(b, key...), v)
	if !ok {
		// Invariant, not input validation: JSON has no spelling for NaN
		// or ±Inf, so no decoded request resolves to one. Kept as a panic
		// deliberately — the request middleware's recover converts it to
		// a 500 if it ever fires, and an error here would hide the bug.
		panic("serve: canonical encoding: non-finite " + key + strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b
}
