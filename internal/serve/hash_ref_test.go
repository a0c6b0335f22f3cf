package serve

// The encoding/json reference for the canonical request form. hash.go
// appends the form by hand; these tagged structs are what it must equal
// byte for byte under json.Marshal (FuzzCanonicalKey, and through the
// digests TestCanonicalKeysPinned). They are the form's historical
// definition: the pinned keys were first computed by marshalling them.

import (
	"encoding/json"
	"fmt"
	"sort"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

// canonicalLayer is one layer shape in hashing form.
type canonicalLayer struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	H      int    `json:"h"`
	L      int    `json:"l"`
	M      int    `json:"m"`
	K      int    `json:"k"`
	S      int    `json:"s"`
	P      int    `json:"p"`
	Groups int    `json:"groups"`
}

// canonicalRequest is the hashing form of a resolved request.
type canonicalRequest struct {
	Op      string           `json:"op"` // "schedule", "compile" or "evaluate"
	Network string           `json:"network"`
	Layers  []canonicalLayer `json:"layers"`

	// Accelerator configuration (zeroed for ops that fix it, e.g.
	// compile always runs the framework's own platform).
	ConfigName  string  `json:"config_name,omitempty"`
	ArrayM      int     `json:"array_m,omitempty"`
	ArrayN      int     `json:"array_n,omitempty"`
	Mapping     int     `json:"mapping,omitempty"`
	FrequencyHz float64 `json:"frequency_hz,omitempty"`
	LocalInput  int     `json:"local_input,omitempty"`
	LocalOutput int     `json:"local_output,omitempty"`
	LocalWeight int     `json:"local_weight,omitempty"`
	BufferWords uint64  `json:"buffer_words,omitempty"`
	BufferTech  int     `json:"buffer_tech,omitempty"`
	BankWords   int     `json:"bank_words,omitempty"`

	// Scheduling options (zeroed for evaluate: the design name fully
	// determines them).
	Patterns       string  `json:"patterns,omitempty"`
	RefreshNS      int64   `json:"refresh_ns,omitempty"`
	Controller     string  `json:"controller,omitempty"`
	NaturalTiling  bool    `json:"natural_tiling,omitempty"`
	RetentionGuard float64 `json:"retention_guard,omitempty"`
	FixedTiling    string  `json:"fixed_tiling,omitempty"`
	// Search is the *resolved* strategy (never empty: the default is
	// spelled out) so a request pinning "pruned" and one omitting the
	// field collapse onto the same key. BeamWidth is the effective beam
	// width, present only under the beam strategy.
	Search    string `json:"search,omitempty"`
	BeamWidth int    `json:"beam_width,omitempty"`

	// Backend is the memory-technology backend, normalized: the default
	// technology adapter's explicit spelling collapses onto the empty
	// string (and out of the key), so legacy requests and explicit-
	// default requests share one entry. OperatingPoint stays verbatim —
	// pinning "nominal" collapses the search axis, which on multi-point
	// backends is a different computation than leaving it open.
	Backend        string  `json:"backend,omitempty"`
	OperatingPoint string  `json:"operating_point,omitempty"`
	ErrorBudget    float64 `json:"error_budget,omitempty"`
	// Traversal and Mapping are the canonical axis spellings
	// (sched.CanonicalTraversalSpec / CanonicalMappingSpec): the parsed
	// axis minus the implicit leading default. Default-only spellings
	// ("", "linear", "row-major", "linear,linear") normalize to the empty
	// string and out of the key, so legacy requests keep their entries.
	Traversal string `json:"traversal,omitempty"`
	MapPolicy string `json:"map_policy,omitempty"`
	// LayerBudgets renders the server-attached per-layer error budgets
	// as sorted "name=rate" pairs. Today the budgets are a pure function
	// of fields already in the key (network name, layer list, the fixed
	// admission constraint), so this is redundancy; it is kept in the
	// form so a future per-request constraint cannot silently collide
	// keys. Requests that never engage the approximate axis carry no
	// budgets and keep the legacy canonical form byte for byte.
	LayerBudgets string `json:"layer_budgets,omitempty"`

	// Design names a Table IV point (evaluate only).
	Design string `json:"design,omitempty"`
}

// canonicalNetwork fills the network part of the hashing form. The
// Stage field is presentation-only (it groups report rows) and is
// excluded: two networks differing only in stage labels schedule
// identically.
func (c *canonicalRequest) canonicalNetwork(net models.Network) {
	c.Network = net.Name
	for _, l := range net.Layers {
		c.Layers = append(c.Layers, canonicalLayer{
			Name: l.Name, N: l.N, H: l.H, L: l.L, M: l.M,
			K: l.K, S: l.S, P: l.P, Groups: l.Groups,
		})
	}
}

// canonicalConfig fills the accelerator part of the hashing form.
func (c *canonicalRequest) canonicalConfig(cfg hw.Config) {
	c.ConfigName = cfg.Name
	c.ArrayM, c.ArrayN = cfg.ArrayM, cfg.ArrayN
	c.Mapping = int(cfg.Mapping)
	c.FrequencyHz = cfg.FrequencyHz
	c.LocalInput, c.LocalOutput, c.LocalWeight = cfg.LocalInput, cfg.LocalOutput, cfg.LocalWeight
	c.BufferWords = cfg.BufferWords
	c.BufferTech = int(cfg.BufferTech)
	c.BankWords = cfg.BankWords
}

// canonicalOptions fills the options part of the hashing form. tech is
// the resolved configuration's buffer technology, needed to normalize
// the default backend's explicit spelling away.
func (c *canonicalRequest) canonicalOptions(opts sched.Options, tech energy.BufferTech) {
	for _, k := range opts.Patterns {
		c.Patterns += k.String() + ","
	}
	c.RefreshNS = int64(opts.RefreshInterval)
	if opts.Controller != nil {
		c.Controller = opts.Controller.Name()
	}
	c.NaturalTiling = opts.NaturalTiling
	c.RetentionGuard = opts.Guard()
	if opts.FixedTiling != nil {
		t := *opts.FixedTiling
		c.FixedTiling = fmt.Sprintf("%d,%d,%d,%d", t.Tm, t.Tn, t.Tr, t.Tc)
	}
	c.Search = string(opts.Search.Resolve())
	if opts.Search.Resolve() == search.Beam {
		c.BeamWidth = search.EffectiveWidth(opts.BeamWidth)
	}
	c.Backend = mem.NormalizeName(opts.Backend, tech)
	c.OperatingPoint = opts.OperatingPoint
	c.ErrorBudget = opts.ErrorBudget
	// Options are resolved (validated) before hashing, so the canonical
	// spellings cannot fail here; the error branches keep the raw spec in
	// the key, which is safe (never a wrong collision, only a missed one).
	if tr, err := sched.CanonicalTraversalSpec(opts.Traversal); err == nil {
		c.Traversal = tr
	} else {
		c.Traversal = opts.Traversal
	}
	if mp, err := sched.CanonicalMappingSpec(opts.Mapping); err == nil {
		c.MapPolicy = mp
	} else {
		c.MapPolicy = opts.Mapping
	}
	if len(opts.LayerBudgets) > 0 {
		names := make([]string, 0, len(opts.LayerBudgets))
		for name := range opts.LayerBudgets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c.LayerBudgets += fmt.Sprintf("%s=%g,", name, opts.LayerBudgets[name])
		}
	}
}

// refScheduleKey is the reference form of scheduleKey's document.
func refScheduleKey(op string, net models.Network, cfg hw.Config, opts sched.Options) ([]byte, error) {
	c := canonicalRequest{Op: op}
	c.canonicalNetwork(net)
	c.canonicalConfig(cfg)
	c.canonicalOptions(opts, cfg.BufferTech)
	return json.Marshal(&c)
}

// refCompileKey is the reference form of compileKey's document.
func refCompileKey(net models.Network, strategy search.Strategy) ([]byte, error) {
	c := canonicalRequest{Op: "compile", Search: string(strategy.Resolve())}
	c.canonicalNetwork(net)
	return json.Marshal(&c)
}

// refEvaluateKey is the reference form of evaluateKey's document.
func refEvaluateKey(design string, net models.Network, backend, point string) ([]byte, error) {
	c := canonicalRequest{Op: "evaluate", Design: design, Backend: backend, OperatingPoint: point}
	c.canonicalNetwork(net)
	return json.Marshal(&c)
}
