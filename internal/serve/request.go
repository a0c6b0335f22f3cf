package serve

// Request types of the ranad HTTP API, their field tables and their
// mapping onto the framework's native types. A body is read without
// reflection by jsonenc.Decode through its type's field table, which
// lists each json tag name beside the reader of its field, and accepts
// exactly what encoding/json with DisallowUnknownFields accepts, except
// that any bytes after the document are rejected. Every request is then
// validated strictly — custom layer shapes go through
// models.Network.Validate, custom accelerators through
// hw.Config.Validate — and *resolved* into a normalized form: the
// native (Network, Config, Options) triple plus the canonical spec the
// request hash is computed over. Two requests that mean the same thing
// (a benchmark named by "model" vs. the same shapes spelled out layer by
// layer) resolve to the same normalized form and therefore the same
// cache key.

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/jsonenc"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/platform"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

// maxRequestBytes bounds a request body; the largest legitimate payload
// (a custom network of a few hundred layers plus a config) is a few tens
// of KB.
const maxRequestBytes = 1 << 20

// maxCustomLayers bounds a custom network's layer count: beyond it the
// request is hostile or mistaken, and scheduling cost would scale with
// attacker-controlled input.
const maxCustomLayers = 4096

// LayerSpec is one custom CONV layer shape on the wire.
type LayerSpec struct {
	Name   string `json:"name"`
	Stage  string `json:"stage,omitempty"`
	N      int    `json:"n"`
	H      int    `json:"h"`
	L      int    `json:"l"`
	M      int    `json:"m"`
	K      int    `json:"k"`
	S      int    `json:"s"`
	P      int    `json:"p"`
	Groups int    `json:"groups,omitempty"`
}

// NetworkSpec is a custom network on the wire.
type NetworkSpec struct {
	Name   string      `json:"name"`
	Layers []LayerSpec `json:"layers"`
}

// ConfigSpec is a custom accelerator configuration on the wire.
type ConfigSpec struct {
	Name        string  `json:"name"`
	ArrayM      int     `json:"array_m"`
	ArrayN      int     `json:"array_n"`
	Mapping     string  `json:"mapping,omitempty"` // "output-pixel" (default) or "output-input"
	FrequencyHz float64 `json:"frequency_hz"`
	LocalInput  int     `json:"local_input"`
	LocalOutput int     `json:"local_output"`
	LocalWeight int     `json:"local_weight"`
	BufferWords uint64  `json:"buffer_words"`
	BufferTech  string  `json:"buffer_tech"` // "sram" or "edram"
	BankWords   int     `json:"bank_words"`
}

// TilingSpec pins the tiling parameters on the wire.
type TilingSpec struct {
	Tm int `json:"tm"`
	Tn int `json:"tn"`
	Tr int `json:"tr"`
	Tc int `json:"tc"`
}

// OptionsSpec is sched.Options on the wire. Zero values select the full
// RANA design point's defaults: hybrid OD+WD exploration, the 734 µs
// tolerable interval, the refresh-optimized controller (eDRAM only).
type OptionsSpec struct {
	Patterns          []string    `json:"patterns,omitempty"`
	RefreshIntervalNS int64       `json:"refresh_interval_ns,omitempty"`
	Controller        string      `json:"controller,omitempty"` // "none", "conventional" or "optimized"
	NaturalTiling     bool        `json:"natural_tiling,omitempty"`
	RetentionGuard    float64     `json:"retention_guard,omitempty"`
	FixedTiling       *TilingSpec `json:"fixed_tiling,omitempty"`
	// Search pins the exploration strategy: "exhaustive", "pruned" or
	// "beam". Empty lets the server choose (the pruned default, or the
	// beam rung of the degradation ladder under a tight deadline).
	Search string `json:"search,omitempty"`
	// BeamWidth bounds the beam's per-layer exact evaluations; only
	// valid with search "beam". Zero selects the default width.
	BeamWidth int `json:"beam_width,omitempty"`
	// Parallelism bounds how many layers the compile explores at once.
	// Zero selects the server's default (its -parallelism flag, or
	// GOMAXPROCS). Plans are byte-identical at every level, so the field
	// never enters the cache key: requests differing only here share one
	// entry, and the response body does not echo it.
	Parallelism int `json:"parallelism,omitempty"`
	// Backend names a memory-technology backend from the registry (see
	// /v1/catalog's "backends"); empty selects the configuration's
	// default technology adapter.
	Backend string `json:"backend,omitempty"`
	// OperatingPoint pins one of the backend's operating points; empty
	// searches every point within the error budget. Pinning "nominal" is
	// *not* the same as omitting the field on multi-point backends: it
	// collapses the search axis to the nominal corner.
	OperatingPoint string `json:"operating_point,omitempty"`
	// ErrorBudget caps the bit-error rate of admissible operating
	// points; zero selects the paper's tolerable 1e-5 failure rate.
	ErrorBudget float64 `json:"error_budget,omitempty"`
	// Traversal opens the tile-traversal-order search axis
	// (sched.ParseTraversalSpec grammar: "linear", "rtc", "blocked<n>",
	// comma-separated); empty keeps the default linear nest only.
	Traversal string `json:"traversal,omitempty"`
	// Mapping opens the data-mapping search axis (sched.ParseMappingSpec
	// grammar: "row-major", "interleave", "all"); empty keeps row-major
	// placement only.
	Mapping string `json:"mapping,omitempty"`
}

// ScheduleRequest asks for a Stage-2 schedule of one network on one
// accelerator under explicit options.
type ScheduleRequest struct {
	// Model names a benchmark network; Network supplies a custom one.
	// Exactly one must be set.
	Model   string       `json:"model,omitempty"`
	Network *NetworkSpec `json:"network,omitempty"`
	// Accelerator names a built-in configuration ("test", "test-edram",
	// "dadiannao", "eyeriss"); Config supplies a custom one. Defaults to
	// "test-edram".
	Accelerator string       `json:"accelerator,omitempty"`
	Config      *ConfigSpec  `json:"config,omitempty"`
	Options     *OptionsSpec `json:"options,omitempty"`
	// DeadlineMS bounds this request end-to-end in milliseconds (capped
	// by the server's request timeout). A deadline below the server's
	// degrade budget trades schedule quality for latency: the response
	// is a cheap uniform fallback schedule marked "degraded".
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CompileRequest asks for the full three-stage compilation.
type CompileRequest struct {
	Model   string       `json:"model,omitempty"`
	Network *NetworkSpec `json:"network,omitempty"`
	// Search pins Stage 2's exploration strategy ("exhaustive", "pruned"
	// or "beam"); empty selects the pruned default.
	Search string `json:"search,omitempty"`
	// Parallelism bounds how many layers Stage 2 explores at once; zero
	// selects the server default. Excluded from the cache key (plans are
	// byte-identical at every level).
	Parallelism int `json:"parallelism,omitempty"`
}

// EvaluateRequest asks for one Table IV design point priced on one
// network, optionally through a non-default memory backend — the
// (network × backend × operating point) evaluation matrix.
type EvaluateRequest struct {
	// Design is a Table IV name, e.g. "RANA*(E-5)".
	Design  string       `json:"design"`
	Model   string       `json:"model,omitempty"`
	Network *NetworkSpec `json:"network,omitempty"`
	// Backend names a memory backend from the registry; empty keeps the
	// design's default technology adapter (the paper's Table IV cell).
	Backend string `json:"backend,omitempty"`
	// OperatingPoint pins one of the backend's points; empty searches
	// every point within the tolerable error budget.
	OperatingPoint string `json:"operating_point,omitempty"`
}

// The field tables: one per wire type, each member's json tag name
// beside the reader of its field, in struct field order.
// TestDecodeRoundTrip holds them to the tags, and the differential fuzz
// to encoding/json.

var layerSpecFields = jsonenc.Fields[LayerSpec]{
	{Name: "name", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.String(&l.Name) }},
	{Name: "stage", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.String(&l.Stage) }},
	{Name: "n", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.N) }},
	{Name: "h", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.H) }},
	{Name: "l", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.L) }},
	{Name: "m", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.M) }},
	{Name: "k", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.K) }},
	{Name: "s", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.S) }},
	{Name: "p", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.P) }},
	{Name: "groups", Read: func(r *jsonenc.Reader, l *LayerSpec) { r.Int(&l.Groups) }},
}

var networkSpecFields = jsonenc.Fields[NetworkSpec]{
	{Name: "name", Read: func(r *jsonenc.Reader, n *NetworkSpec) { r.String(&n.Name) }},
	{Name: "layers", Read: func(r *jsonenc.Reader, n *NetworkSpec) {
		jsonenc.Slice(r, &n.Layers, func(r *jsonenc.Reader, l *LayerSpec) { jsonenc.Object(r, l, layerSpecFields) })
	}},
}

var configSpecFields = jsonenc.Fields[ConfigSpec]{
	{Name: "name", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.String(&c.Name) }},
	{Name: "array_m", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Int(&c.ArrayM) }},
	{Name: "array_n", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Int(&c.ArrayN) }},
	{Name: "mapping", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.String(&c.Mapping) }},
	{Name: "frequency_hz", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Float64(&c.FrequencyHz) }},
	{Name: "local_input", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Int(&c.LocalInput) }},
	{Name: "local_output", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Int(&c.LocalOutput) }},
	{Name: "local_weight", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Int(&c.LocalWeight) }},
	{Name: "buffer_words", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Uint64(&c.BufferWords) }},
	{Name: "buffer_tech", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.String(&c.BufferTech) }},
	{Name: "bank_words", Read: func(r *jsonenc.Reader, c *ConfigSpec) { r.Int(&c.BankWords) }},
}

var tilingSpecFields = jsonenc.Fields[TilingSpec]{
	{Name: "tm", Read: func(r *jsonenc.Reader, t *TilingSpec) { r.Int(&t.Tm) }},
	{Name: "tn", Read: func(r *jsonenc.Reader, t *TilingSpec) { r.Int(&t.Tn) }},
	{Name: "tr", Read: func(r *jsonenc.Reader, t *TilingSpec) { r.Int(&t.Tr) }},
	{Name: "tc", Read: func(r *jsonenc.Reader, t *TilingSpec) { r.Int(&t.Tc) }},
}

var optionsSpecFields = jsonenc.Fields[OptionsSpec]{
	{Name: "patterns", Read: func(r *jsonenc.Reader, o *OptionsSpec) { jsonenc.Slice(r, &o.Patterns, (*jsonenc.Reader).String) }},
	{Name: "refresh_interval_ns", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.Int64(&o.RefreshIntervalNS) }},
	{Name: "controller", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.String(&o.Controller) }},
	{Name: "natural_tiling", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.Bool(&o.NaturalTiling) }},
	{Name: "retention_guard", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.Float64(&o.RetentionGuard) }},
	{Name: "fixed_tiling", Read: func(r *jsonenc.Reader, o *OptionsSpec) { jsonenc.Pointer(r, &o.FixedTiling, tilingSpecFields) }},
	{Name: "search", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.String(&o.Search) }},
	{Name: "beam_width", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.Int(&o.BeamWidth) }},
	{Name: "parallelism", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.Int(&o.Parallelism) }},
	{Name: "backend", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.String(&o.Backend) }},
	{Name: "operating_point", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.String(&o.OperatingPoint) }},
	{Name: "error_budget", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.Float64(&o.ErrorBudget) }},
	{Name: "traversal", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.String(&o.Traversal) }},
	{Name: "mapping", Read: func(r *jsonenc.Reader, o *OptionsSpec) { r.String(&o.Mapping) }},
}

var scheduleRequestFields = jsonenc.Fields[ScheduleRequest]{
	{Name: "model", Read: func(r *jsonenc.Reader, q *ScheduleRequest) { r.String(&q.Model) }},
	{Name: "network", Read: func(r *jsonenc.Reader, q *ScheduleRequest) { jsonenc.Pointer(r, &q.Network, networkSpecFields) }},
	{Name: "accelerator", Read: func(r *jsonenc.Reader, q *ScheduleRequest) { r.String(&q.Accelerator) }},
	{Name: "config", Read: func(r *jsonenc.Reader, q *ScheduleRequest) { jsonenc.Pointer(r, &q.Config, configSpecFields) }},
	{Name: "options", Read: func(r *jsonenc.Reader, q *ScheduleRequest) { jsonenc.Pointer(r, &q.Options, optionsSpecFields) }},
	{Name: "deadline_ms", Read: func(r *jsonenc.Reader, q *ScheduleRequest) { r.Int64(&q.DeadlineMS) }},
}

var compileRequestFields = jsonenc.Fields[CompileRequest]{
	{Name: "model", Read: func(r *jsonenc.Reader, q *CompileRequest) { r.String(&q.Model) }},
	{Name: "network", Read: func(r *jsonenc.Reader, q *CompileRequest) { jsonenc.Pointer(r, &q.Network, networkSpecFields) }},
	{Name: "search", Read: func(r *jsonenc.Reader, q *CompileRequest) { r.String(&q.Search) }},
	{Name: "parallelism", Read: func(r *jsonenc.Reader, q *CompileRequest) { r.Int(&q.Parallelism) }},
}

var evaluateRequestFields = jsonenc.Fields[EvaluateRequest]{
	{Name: "design", Read: func(r *jsonenc.Reader, q *EvaluateRequest) { r.String(&q.Design) }},
	{Name: "model", Read: func(r *jsonenc.Reader, q *EvaluateRequest) { r.String(&q.Model) }},
	{Name: "network", Read: func(r *jsonenc.Reader, q *EvaluateRequest) { jsonenc.Pointer(r, &q.Network, networkSpecFields) }},
	{Name: "backend", Read: func(r *jsonenc.Reader, q *EvaluateRequest) { r.String(&q.Backend) }},
	{Name: "operating_point", Read: func(r *jsonenc.Reader, q *EvaluateRequest) { r.String(&q.OperatingPoint) }},
}

// apiError is a client-visible request failure with an HTTP status.
// retryAfter, when positive, becomes a Retry-After header — the
// contract shed (429) and breaker-open (503) responses use to tell
// well-behaved clients when to come back.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// decodeRequest strictly reads a request body into dst through its
// field table. Anything after the document, even a stray '}', is a
// malformed request, not traffic to silently ignore.
func decodeRequest[T any](body []byte, dst *T, fields jsonenc.Fields[T]) error {
	if err := jsonenc.Decode(body, dst, fields); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// resolveNetwork maps (model, spec) onto a validated models.Network.
func resolveNetwork(model string, spec *NetworkSpec) (models.Network, error) {
	switch {
	case model != "" && spec != nil:
		return models.Network{}, badRequest(`set "model" or "network", not both`)
	case model != "":
		if n, ok := models.ByName(model); ok {
			return n, nil
		}
		return models.Network{}, badRequest("unknown model %q (want one of %v)", model, benchmarkNames())
	case spec != nil:
		if len(spec.Layers) > maxCustomLayers {
			return models.Network{}, badRequest("custom network has %d layers, max %d", len(spec.Layers), maxCustomLayers)
		}
		net := models.Network{Name: spec.Name}
		for _, l := range spec.Layers {
			net.Layers = append(net.Layers, models.ConvLayer{
				Name: l.Name, Stage: l.Stage,
				N: l.N, H: l.H, L: l.L, M: l.M,
				K: l.K, S: l.S, P: l.P, Groups: l.Groups,
			})
		}
		if net.Name == "" {
			return models.Network{}, badRequest("custom network needs a name")
		}
		if err := net.Validate(); err != nil {
			return models.Network{}, badRequest("invalid network: %v", err)
		}
		return net, nil
	default:
		return models.Network{}, badRequest(`request needs "model" or "network"`)
	}
}

func benchmarkNames() []string {
	var names []string
	for _, n := range models.Benchmarks() {
		names = append(names, n.Name)
	}
	return names
}

// builtinConfigs are the named accelerator configurations the API
// accepts, built once: the map is read-only after construction and
// hw.Config holds only scalars, so every request shares it.
var builtinConfigs = sync.OnceValue(func() map[string]hw.Config {
	return map[string]hw.Config{
		"test":       hw.TestAccelerator(),
		"test-edram": hw.TestAcceleratorEDRAM(),
		"dadiannao":  hw.DaDianNao(),
		"eyeriss":    hw.EyerissLike(),
	}
})

func builtinConfigNames() []string {
	var names []string
	for name := range builtinConfigs() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resolveConfig maps (accelerator, spec) onto a validated hw.Config.
func resolveConfig(accelerator string, spec *ConfigSpec) (hw.Config, error) {
	switch {
	case accelerator != "" && spec != nil:
		return hw.Config{}, badRequest(`set "accelerator" or "config", not both`)
	case spec != nil:
		var mapping hw.Mapping
		switch spec.Mapping {
		case "", "output-pixel":
			mapping = hw.MapOutputPixel
		case "output-input":
			mapping = hw.MapOutputInput
		default:
			return hw.Config{}, badRequest(`invalid mapping %q (want "output-pixel" or "output-input")`, spec.Mapping)
		}
		var tech energy.BufferTech
		switch spec.BufferTech {
		case "sram":
			tech = energy.SRAM
		case "edram":
			tech = energy.EDRAM
		default:
			return hw.Config{}, badRequest(`invalid buffer_tech %q (want "sram" or "edram")`, spec.BufferTech)
		}
		cfg := hw.Config{
			Name: spec.Name, ArrayM: spec.ArrayM, ArrayN: spec.ArrayN,
			Mapping: mapping, FrequencyHz: spec.FrequencyHz,
			LocalInput: spec.LocalInput, LocalOutput: spec.LocalOutput,
			LocalWeight: spec.LocalWeight, BufferWords: spec.BufferWords,
			BufferTech: tech, BankWords: spec.BankWords,
		}
		if cfg.Name == "" {
			return hw.Config{}, badRequest("custom config needs a name")
		}
		if err := cfg.Validate(); err != nil {
			return hw.Config{}, badRequest("invalid config: %v", err)
		}
		return cfg, nil
	default:
		name := accelerator
		if name == "" {
			name = "test-edram"
		}
		cfg, ok := builtinConfigs()[name]
		if !ok {
			return hw.Config{}, badRequest("unknown accelerator %q (want one of %v)", name, builtinConfigNames())
		}
		return cfg, nil
	}
}

// resolveOptions maps an OptionsSpec onto validated sched.Options for
// the given configuration, applying the RANA defaults for absent fields,
// and returns the backend's operating points the options admit.
func resolveOptions(spec *OptionsSpec, cfg hw.Config) (sched.Options, []mem.OperatingPoint, error) {
	if spec == nil {
		spec = &OptionsSpec{}
	}
	opts := sched.Options{
		NaturalTiling:  spec.NaturalTiling,
		RetentionGuard: spec.RetentionGuard,
	}
	if len(spec.Patterns) == 0 {
		opts.Patterns = []pattern.Kind{pattern.OD, pattern.WD}
	} else {
		for _, s := range spec.Patterns {
			k, ok := pattern.ParseKind(s)
			if !ok {
				return sched.Options{}, nil, badRequest(`invalid pattern %q (want "ID", "OD" or "WD")`, s)
			}
			opts.Patterns = append(opts.Patterns, k)
		}
	}
	if spec.RefreshIntervalNS < 0 {
		return sched.Options{}, nil, badRequest("negative refresh_interval_ns %d", spec.RefreshIntervalNS)
	}
	opts.RefreshInterval = time.Duration(spec.RefreshIntervalNS)
	if opts.RefreshInterval == 0 {
		opts.RefreshInterval = retention.TolerableRetentionTime
	}
	controller := spec.Controller
	if controller == "" {
		if cfg.BufferTech == energy.EDRAM {
			controller = "optimized"
		} else {
			controller = "none"
		}
	}
	switch controller {
	case "none":
		opts.Controller = nil
		opts.RefreshInterval = 0
	case "conventional":
		opts.Controller = memctrl.Conventional{}
	case "optimized":
		opts.Controller = memctrl.RefreshOptimized{}
	default:
		return sched.Options{}, nil, badRequest(`invalid controller %q (want "none", "conventional" or "optimized")`, spec.Controller)
	}
	if spec.RetentionGuard < 0 || spec.RetentionGuard > 1 {
		return sched.Options{}, nil, badRequest("retention_guard %g outside [0,1]", spec.RetentionGuard)
	}
	if spec.FixedTiling != nil {
		t := pattern.Tiling{Tm: spec.FixedTiling.Tm, Tn: spec.FixedTiling.Tn,
			Tr: spec.FixedTiling.Tr, Tc: spec.FixedTiling.Tc}
		if err := t.Validate(); err != nil {
			return sched.Options{}, nil, badRequest("invalid fixed_tiling: %v", err)
		}
		opts.FixedTiling = &t
	}
	s, err := resolveSearch(spec.Search)
	if err != nil {
		return sched.Options{}, nil, err
	}
	opts.Search = s
	if spec.BeamWidth != 0 {
		if spec.BeamWidth < 0 {
			return sched.Options{}, nil, badRequest("negative beam_width %d", spec.BeamWidth)
		}
		if opts.Search != search.Beam {
			return sched.Options{}, nil, badRequest(`beam_width requires "search": "beam"`)
		}
		opts.BeamWidth = spec.BeamWidth
	}
	if err := validateParallelism(spec.Parallelism); err != nil {
		return sched.Options{}, nil, err
	}
	opts.Parallelism = spec.Parallelism
	opts.Backend = spec.Backend
	opts.OperatingPoint = spec.OperatingPoint
	opts.ErrorBudget = spec.ErrorBudget
	opts.Traversal = spec.Traversal
	opts.Mapping = spec.Mapping
	// Axis specs are validated eagerly for a precise 400; Validate would
	// catch them too, but wrapped as a generic option error. Resolving a
	// spec's canonical spelling parses it once and memoizes it, so
	// Validate, the key and the compile look it up instead.
	if _, err := sched.CanonicalTraversalSpec(spec.Traversal); err != nil {
		return sched.Options{}, nil, badRequest("invalid traversal: %v", err)
	}
	if _, err := sched.CanonicalMappingSpec(spec.Mapping); err != nil {
		return sched.Options{}, nil, badRequest("invalid mapping: %v", err)
	}
	// Full backend resolution up front: an unknown backend, an unknown or
	// over-budget operating point, or a budget excluding every point is a
	// 400 at admission, not a 422 from deep inside the search.
	_, pts, err := sched.ResolveBackend(cfg, opts)
	if err != nil {
		return sched.Options{}, nil, badRequest("invalid options: %v", err)
	}
	if err := opts.Validate(); err != nil {
		return sched.Options{}, nil, badRequest("invalid options: %v", err)
	}
	return opts, pts, nil
}

// validateParallelism gates a request's worker-count knob: zero defers
// to the server default, and the cap bounds goroutine fan-out against
// hostile values (the scheduler clamps again, but a clearly absurd
// request deserves a 400, not a silent clamp).
func validateParallelism(p int) error {
	if p < 0 {
		return badRequest("negative parallelism %d", p)
	}
	if p > sched.MaxParallelism {
		return badRequest("parallelism %d above the maximum %d", p, sched.MaxParallelism)
	}
	return nil
}

// searchStrategyNames lists the strategies the API accepts, in catalog
// order.
func searchStrategyNames() []string {
	var names []string
	for _, s := range search.Strategies() {
		names = append(names, string(s))
	}
	return names
}

// resolveSearch maps a wire strategy name onto search.Strategy. The
// empty string stays empty — "client didn't pin a strategy" — so the
// degradation ladder knows it may substitute the beam rung; callees
// resolve it to the pruned default otherwise.
func resolveSearch(name string) (search.Strategy, error) {
	s := search.Strategy(name)
	if err := s.Validate(); err != nil {
		return "", badRequest("invalid search %q (want one of %v)", name, searchStrategyNames())
	}
	return s, nil
}

// resolveDesign maps a Table IV design name onto the design point.
func resolveDesign(name string) (platform.Design, error) {
	if name == "" {
		return platform.Design{}, badRequest(`request needs a "design"`)
	}
	d, ok := platform.DesignByName(name)
	if !ok {
		var names []string
		for _, d := range platform.Designs() {
			names = append(names, d.Name)
		}
		return platform.Design{}, badRequest("unknown design %q (want one of %v)", name, names)
	}
	return d, nil
}
