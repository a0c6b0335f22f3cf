package sched

// The canonical form of a Stage-2 frame: the accelerator configuration
// and the scheduling options a layer is planned under. Two spellings of
// one problem (the default strategy or backend named or left empty, an
// axis spec in another order) write the same bytes, and two problems
// that can plan differently never do. It is the one encoder of the
// frame. ranad's cache key appends it after the op and the network; the
// layer memo's key hashes it once per compile with Config.Name,
// RefreshInterval and LayerBudgets cleared (frameDigest). Its bytes are
// those json.Marshal gives the tagged reference struct in serve's
// hash_ref_test.go, which pins ranad's persisted keys.

import (
	"slices"
	"strconv"

	"rana/internal/hw"
	"rana/internal/jsonenc"
	"rana/internal/mem"
	"rana/internal/sched/search"
)

// AppendCanonical appends the canonical form of (cfg, o) to b: the
// configuration and then the options, each field as `,"name":value`
// and omitted at its zero value. The strategy is spelled resolved and
// the beam width counts only under the beam; the guard band is the
// effective one; the default backend's explicit spelling folds onto the
// empty one for cfg's technology; the axis specs appear in canonical
// spelling. Parallelism, Memo, DisableMemo and Prefix are absent: none
// changes a plan byte. cfg and o must be validated; a non-finite float
// panics.
func AppendCanonical(b []byte, cfg *hw.Config, o *Options) []byte {
	b = jsonenc.OmitString(b, `,"config_name":`, cfg.Name)
	b = jsonenc.OmitInt(b, `,"array_m":`, int64(cfg.ArrayM))
	b = jsonenc.OmitInt(b, `,"array_n":`, int64(cfg.ArrayN))
	b = jsonenc.OmitInt(b, `,"mapping":`, int64(cfg.Mapping))
	b = jsonenc.OmitFloat(b, `,"frequency_hz":`, cfg.FrequencyHz)
	b = jsonenc.OmitInt(b, `,"local_input":`, int64(cfg.LocalInput))
	b = jsonenc.OmitInt(b, `,"local_output":`, int64(cfg.LocalOutput))
	b = jsonenc.OmitInt(b, `,"local_weight":`, int64(cfg.LocalWeight))
	if cfg.BufferWords != 0 {
		b = strconv.AppendUint(append(b, `,"buffer_words":`...), cfg.BufferWords, 10)
	}
	b = jsonenc.OmitInt(b, `,"buffer_tech":`, int64(cfg.BufferTech))
	b = jsonenc.OmitInt(b, `,"bank_words":`, int64(cfg.BankWords))

	if len(o.Patterns) > 0 {
		b = append(b, `,"patterns":"`...)
		from := len(b)
		for _, k := range o.Patterns {
			b = append(append(b, k.String()...), ',')
		}
		b = jsonenc.EndString(b, from)
	}
	b = jsonenc.OmitInt(b, `,"refresh_ns":`, int64(o.RefreshInterval))
	if o.Controller != nil {
		b = jsonenc.OmitString(b, `,"controller":`, o.Controller.Name())
	}
	if o.NaturalTiling {
		b = append(b, `,"natural_tiling":true`...)
	}
	b = jsonenc.OmitFloat(b, `,"retention_guard":`, guardFactor(o.RetentionGuard))
	if t := o.FixedTiling; t != nil {
		b = strconv.AppendInt(append(b, `,"fixed_tiling":"`...), int64(t.Tm), 10)
		b = strconv.AppendInt(append(b, ','), int64(t.Tn), 10)
		b = strconv.AppendInt(append(b, ','), int64(t.Tr), 10)
		b = strconv.AppendInt(append(b, ','), int64(t.Tc), 10)
		b = append(b, '"')
	}
	strategy := o.Search.Resolve()
	b = jsonenc.OmitString(b, `,"search":`, string(strategy))
	if strategy == search.Beam {
		b = jsonenc.OmitInt(b, `,"beam_width":`, int64(search.EffectiveWidth(o.BeamWidth)))
	}
	// The operating point stays verbatim: pinning "nominal" collapses the
	// point axis, a different computation on multi-point backends than
	// leaving it open.
	b = jsonenc.OmitString(b, `,"backend":`, mem.NormalizeName(o.Backend, cfg.BufferTech))
	b = jsonenc.OmitString(b, `,"operating_point":`, o.OperatingPoint)
	b = jsonenc.OmitFloat(b, `,"error_budget":`, o.ErrorBudget)
	// Default-only axis spellings ("", "linear", "row-major,row-major")
	// normalize to the empty string and out of the form.
	b = jsonenc.OmitString(b, `,"traversal":`, canonicalSpec(o.Traversal, CanonicalTraversalSpec))
	b = jsonenc.OmitString(b, `,"map_policy":`, canonicalSpec(o.Mapping, CanonicalMappingSpec))
	// The per-layer budgets as sorted "name=rate," pairs. In ranad they
	// are a pure function of fields already in its key (network, layers,
	// the fixed admission constraint); they stay in the form so a future
	// per-request constraint cannot silently collide keys.
	if len(o.LayerBudgets) > 0 {
		names := make([]string, 0, len(o.LayerBudgets))
		for name := range o.LayerBudgets {
			names = append(names, name)
		}
		slices.Sort(names)
		b = append(b, `,"layer_budgets":"`...)
		from := len(b)
		for _, name := range names {
			b = append(append(b, name...), '=')
			b = append(strconv.AppendFloat(b, o.LayerBudgets[name], 'g', -1, 64), ',')
		}
		b = jsonenc.EndString(b, from)
	}
	return b
}

// canonicalSpec is an axis spec's canonical spelling, from the spec
// memos. The empty spec skips the lookup. A spec that does not parse
// keeps its raw spelling, which can only miss a collision, never make a
// wrong one; validated options always parse.
func canonicalSpec(spec string, canonical func(string) (string, error)) string {
	if spec == "" {
		return ""
	}
	if c, err := canonical(spec); err == nil {
		return c
	}
	return spec
}
