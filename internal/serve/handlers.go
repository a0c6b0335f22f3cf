package serve

// Endpoint handlers. Every keyed request — /v1/schedule, /v1/compile,
// /v1/evaluate and each /v1/compile-batch entry — runs one pipeline:
// decode (keyed, or the batch handler) → prepare (prepareSchedule,
// prepareCompile, prepareEvaluate: resolve onto native types, apply the
// defaults and the ladder, key the resolved form) → route (cache tiers,
// ring owner, breaker, singleflight, worker pool) → account (run: the
// ladder rung a success was served on). A sync request first probes the
// plan cache's body index (keyed): a body served from the cache before
// skips the pipeline and is accounted as the hit it would have been.
// Response bodies are marshaled once inside the computation so every
// consumer of a key sees identical bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rana/internal/core"
	"rana/internal/hw"
	"rana/internal/jsonenc"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/platform"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/training"
)

// ScheduleResponse is the /v1/schedule response body.
type ScheduleResponse struct {
	// Accelerator names the resolved configuration.
	Accelerator string `json:"accelerator"`
	// RefreshIntervalNS echoes the resolved refresh interval (0 when no
	// controller runs).
	RefreshIntervalNS int64 `json:"refresh_interval_ns"`
	// Controller echoes the resolved controller ("none" when absent).
	Controller string `json:"controller"`
	// Plan is the schedule in the shared wire encoding — the same
	// format as the golden regression files and `rana-sched -json`.
	Plan sched.PlanJSON `json:"plan"`
	// Search echoes the resolved exploration strategy the schedule ran
	// under — the client's pinned strategy, the pruned default, or the
	// beam rung the degradation ladder substituted for a tight deadline.
	// Empty on degraded responses (the uniform fallback does not search).
	Search string `json:"search,omitempty"`
	// Degraded marks a response served via the degradation ladder: the
	// request's deadline budget was below the server's degrade budget,
	// so this is a cheap uniform fallback schedule (natural tiling,
	// no per-layer search), valid but not energy-optimal.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// degradedReason is deliberately a fixed string — no per-request
// numbers — so degraded responses stay byte-identical across cache
// hits, misses and dedups.
const degradedReason = "deadline budget below the full-search threshold; served the uniform fallback schedule"

// budgetFallbackReason marks the error-budget rung of the degradation
// ladder: the request pinned an operating point that clears the uniform
// error budget but breaks at least one layer's own calibrated budget,
// so the nominal corner was substituted. Fixed string for the same
// byte-identity reason as degradedReason.
const budgetFallbackReason = "pinned operating point exceeds a per-layer error budget; served the nominal corner"

// anyFaulty reports whether any operating point carries a non-zero raw
// bit-error rate — the request engaging the approximate axis.
func anyFaulty(pts []mem.OperatingPoint) bool {
	for _, p := range pts {
		if p.BitErrorRate > 0 {
			return true
		}
	}
	return false
}

// planFaulty reports whether a computed plan places any layer's data at
// a fault-exposed (non-nominal) operating point.
func planFaulty(plan *sched.Plan) bool {
	for i := range plan.Layers {
		if pt := plan.Layers[i].Point; pt != "" && pt != mem.Nominal {
			return true
		}
	}
	return false
}

// rung is the degradation-ladder rung a schedule request is served on,
// where the rung changes the body and the counters. The beam rung does
// neither: it only changes the search strategy, which the key already
// holds, so it is served as rungFull.
type rung uint8

const (
	rungFull           rung = iota // the search the request resolved to
	rungDegraded                   // the deadline is below DegradeBudget: the uniform fallback
	rungBudgetFallback             // a pinned point broke a per-layer error budget: the nominal corner
)

// work is one prepared keyed computation: the endpoint it mirrors
// (where route replays the request when a ring peer owns the key), the
// canonical cache key, the request's explicit deadline (0 = none), the
// ladder rung it was prepared on, and the computation itself. The sync
// handlers and the async batch entries share this form — a batch entry
// is exactly a sync request minus the held HTTP connection, so
// preparing and running both through one path keeps their bytes
// identical by construction.
type work struct {
	path     string
	key      string
	deadline time.Duration
	rung     rung
	compute  func(ctx context.Context) ([]byte, error)
}

// keyed is the handler of the keyed endpoint tagged tag. It first
// probes the plan cache's body index with the body's digest: a body the
// cache has served before is answered from the entry it resolved to,
// with no decode, no prepare, no key and no timer, and counted as the
// decoded hit it would have been. Otherwise it decodes the body through
// T's field table, prepares the request's work and runs it; when the
// local cache tiers served it, the body is indexed under its key, so
// its next repeat is a body hit. The body itself is what route replays
// on the key's ring owner.
func keyed[T any](s *Server, tag string, fields jsonenc.Fields[T], prepare func(T) (*work, error)) func(context.Context, []byte) (*response, error) {
	return func(ctx context.Context, body []byte) (*response, error) {
		d := digestBody(tag, body)
		if key, cached, r, ok := s.cache.GetBody(d); ok {
			s.m.CacheHits.Add(1)
			s.m.CacheBodyHits.Add(1)
			s.m.served(r)
			return &response{body: cached, key: key, source: "hit"}, nil
		}
		var req T
		if err := decodeRequest(body, &req, fields); err != nil {
			return nil, err
		}
		w, err := prepare(req)
		if err != nil {
			return nil, err
		}
		resp, err := s.run(ctx, w, body, false)
		if err == nil && (resp.source == "hit" || resp.source == "store") {
			s.cache.Alias(d, w.key, w.rung)
		}
		return resp, err
	}
}

// run carries out prepared work for a sync handler (wait false) and a
// batch entry (wait true) alike: it answers from the local cache tiers,
// or else routes the work under one timer (raw is the body a ring owner
// is sent, wait selects blocking admission), and counts the ladder rung
// a success was served on. A sync request's timer is the request
// timeout, capped by its own deadline; a batch entry's is its deadline
// alone, and one without a deadline runs under its job's context.
func (s *Server) run(ctx context.Context, w *work, raw []byte, wait bool) (*response, error) {
	resp, ok := s.tiered(w.key)
	if !ok {
		timeout := w.deadline
		if !wait && (timeout == 0 || timeout > s.cfg.RequestTimeout) {
			timeout = s.cfg.RequestTimeout
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		var err error
		if resp, err = s.route(ctx, w, raw, wait); err != nil {
			return nil, err
		}
	}
	s.m.served(w.rung)
	return resp, nil
}

// admitLayers is Stage 1's per-layer error-budget admission of a
// schedule request on the approximate operating-point axis: it sets on
// opts the layer budgets Stage 1's default frame derives and, when opts
// pins an operating point, resolves that point against each layer's own
// budget. breach is the first layer's refusal, which schedule answers
// with the nominal corner.
func admitLayers(net models.Network, cfg hw.Config, opts *sched.Options) (breach, err error) {
	if opts.LayerBudgets, err = core.LayerBudgets(net, core.DefaultAccuracyConstraint, training.PaperRates); err != nil {
		return nil, fmt.Errorf("serve: deriving layer budgets: %w", err)
	}
	if opts.OperatingPoint == "" {
		return nil, nil
	}
	for _, l := range net.Layers {
		if _, _, lerr := sched.ResolveBackendForLayer(cfg, *opts, l.Name); lerr != nil {
			return lerr, nil
		}
	}
	return nil, nil
}

// prepareSchedule resolves a ScheduleRequest into its work: validation,
// defaulting, the degradation ladder, the canonical key, and the
// computation closure.
func (s *Server) prepareSchedule(req ScheduleRequest) (*work, error) {
	if req.DeadlineMS < 0 {
		return nil, badRequest("negative deadline_ms %d", req.DeadlineMS)
	}
	net, err := resolveNetwork(req.Model, req.Network)
	if err != nil {
		return nil, err
	}
	cfg, err := resolveConfig(req.Accelerator, req.Config)
	if err != nil {
		return nil, err
	}
	opts, pts, err := resolveOptions(req.Options, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.checkBackendAllowed(mem.NormalizeName(opts.Backend, cfg.BufferTech)); err != nil {
		return nil, err
	}
	// The degradation ladder: an explicit deadline tightens the request
	// context. A deadline too small for the full hybrid search swaps in
	// the uniform fallback options (bottom rung); one that clears the
	// degrade budget but not the beam budget swaps the exploration
	// strategy for the budgeted beam (middle rung) — but only when the
	// client left the strategy to the server; a pinned "search" field is
	// honored as written. The degraded variant gets its own cache key
	// ("schedule-degraded") because its body differs even when the
	// resolved options coincide with a full request's; the beam rung
	// needs no such carve-out since the resolved strategy is already a
	// cache-key component.
	w := &work{path: "/v1/schedule"}
	if req.DeadlineMS > 0 {
		w.deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		pinned := req.Options != nil && req.Options.Search != ""
		switch {
		case s.cfg.DegradeBudget > 0 && w.deadline < s.cfg.DegradeBudget:
			w.rung = rungDegraded
			point := opts.OperatingPoint
			opts = opts.Fallback()
			// Pinning the nominal corner is the one ladder step that
			// changes the backend's points; resolve them again. A
			// corner the backend lacks resolves to no points and
			// admits no layer.
			if opts.OperatingPoint != point {
				_, pts, _ = sched.ResolveBackend(cfg, opts)
			}
		case s.cfg.BeamBudget > 0 && w.deadline < s.cfg.BeamBudget && !pinned:
			opts.Search = search.Beam
		}
	}
	// Stage 1's per-layer error budgets ride along whenever the request
	// engages the approximate operating-point axis (a resolved point
	// with a non-zero bit-error rate): the scheduler then admits points
	// layer by layer against the calibrated resilience curves. Legacy
	// requests resolve to nominal-only point sets and keep their exact
	// options — and canonical cache keys — untouched.
	if anyFaulty(pts) {
		breach, err := admitLayers(net, cfg, &opts)
		if err != nil {
			return nil, err
		}
		// The error-budget rung of the ladder: a pinned point that
		// clears the uniform budget but breaks a layer's own budget is
		// degraded to the backend's nominal corner, not failed — the
		// client asked for a plan, and the safe corner is always
		// admissible.
		if breach != nil && w.rung != rungDegraded {
			w.rung = rungBudgetFallback
			opts.OperatingPoint = mem.Nominal
		}
	}
	// Parallelism and the shared memo ride along *outside* the cache key:
	// plans are byte-identical at every worker count, so requests
	// differing only here must share one entry. The ladder composes with
	// both — a beam-rung (or degraded) computation still explores its
	// layers across the workers and still hits the shared memo.
	if opts.Parallelism == 0 {
		opts.Parallelism = s.cfg.Parallelism
	}
	opts.Memo = s.memo
	op := "schedule"
	switch w.rung {
	case rungDegraded:
		op = "schedule-degraded"
	case rungBudgetFallback:
		op = "schedule-budget-fallback"
	}
	w.key = scheduleKey(op, net, cfg, opts)
	ladder := w.rung
	w.compute = func(ctx context.Context) ([]byte, error) {
		s.m.computed(sched.EffectiveParallelism(opts.Parallelism))
		plan, err := s.scheduleFn(ctx, net, cfg, opts)
		if err != nil {
			return nil, wrapComputeErr(ctx, err)
		}
		controller := "none"
		if opts.Controller != nil {
			controller = opts.Controller.Name()
		}
		resp := ScheduleResponse{
			Accelerator:       cfg.Name,
			RefreshIntervalNS: int64(opts.RefreshInterval),
			Controller:        controller,
		}
		switch ladder {
		case rungDegraded:
			resp.Degraded = true
			resp.DegradedReason = degradedReason
		case rungBudgetFallback:
			// The budget rung ran the full search (at the nominal corner),
			// so Search is still reported alongside the degraded marker.
			resp.Degraded = true
			resp.DegradedReason = budgetFallbackReason
			resp.Search = string(opts.Search.Resolve())
		default:
			resp.Search = string(opts.Search.Resolve())
		}
		if planFaulty(plan) {
			s.m.FaultInjections.Add(1)
		}
		body, err := scheduleBody(&resp, plan)
		s.plans.Put(plan)
		return body, err
	}
	return w, nil
}

// CompileResponse is the /v1/compile response body: the Stage 1
// decision, the Stage 3 programming, the portable compilation artifact
// (the `rana-sched -export` format) and the plan wire encoding.
type CompileResponse struct {
	TolerableRate        float64         `json:"tolerable_rate"`
	TolerableRetentionNS int64           `json:"tolerable_retention_ns"`
	DividerRatio         uint64          `json:"divider_ratio"`
	EnergyPJ             float64         `json:"energy_pj"`
	Artifact             json.RawMessage `json:"artifact"`
	Plan                 sched.PlanJSON  `json:"plan"`
}

// prepareCompile resolves a CompileRequest into its work.
func (s *Server) prepareCompile(req CompileRequest) (*work, error) {
	net, err := resolveNetwork(req.Model, req.Network)
	if err != nil {
		return nil, err
	}
	strategy, err := resolveSearch(req.Search)
	if err != nil {
		return nil, err
	}
	if err := validateParallelism(req.Parallelism); err != nil {
		return nil, err
	}
	parallelism := req.Parallelism
	if parallelism == 0 {
		parallelism = s.cfg.Parallelism
	}
	w := &work{path: "/v1/compile", key: compileKey(net, strategy)}
	w.compute = func(ctx context.Context) ([]byte, error) {
		s.m.computed(sched.EffectiveParallelism(parallelism))
		out, err := s.compileFn(ctx, net, strategy, parallelism)
		if err != nil {
			return nil, wrapComputeErr(ctx, err)
		}
		var artifact bytes.Buffer
		if err := out.ExportConfig(&artifact); err != nil {
			return nil, fmt.Errorf("serve: exporting artifact: %w", err)
		}
		return marshalBody(CompileResponse{
			TolerableRate:        out.TolerableRate,
			TolerableRetentionNS: out.TolerableRetention.Nanoseconds(),
			DividerRatio:         out.DividerRatio,
			EnergyPJ:             out.Energy.Total(),
			Artifact:             json.RawMessage(artifact.Bytes()),
			Plan:                 sched.Encode(out.Plan),
		})
	}
	return w, nil
}

// EnergyJSON is an energy breakdown on the wire (picojoules). Wear is
// omitted when zero so wear-free technologies keep the legacy encoding.
type EnergyJSON struct {
	Computing    float64 `json:"computing_pj"`
	BufferAccess float64 `json:"buffer_access_pj"`
	Refresh      float64 `json:"refresh_pj"`
	OffChip      float64 `json:"offchip_pj"`
	Wear         float64 `json:"wear_pj,omitempty"`
	Total        float64 `json:"total_pj"`
}

// ResilienceJSON reports the error-budget frame an evaluation was
// admitted under: the uniform Stage 1 failure-rate budget, the
// relative-accuracy constraint the per-layer budgets were derived at,
// and the budgets themselves. Only attached when the request engages
// the approximate operating-point axis, so legacy response bodies are
// byte-identical. encoding/json sorts map keys, so the field is
// deterministic on the wire.
type ResilienceJSON struct {
	ErrorBudget  float64            `json:"error_budget"`
	Constraint   float64            `json:"constraint"`
	LayerBudgets map[string]float64 `json:"layer_budgets"`
}

// EvaluateResponse is the /v1/evaluate response body.
type EvaluateResponse struct {
	Design     string          `json:"design"`
	Network    string          `json:"network"`
	Energy     EnergyJSON      `json:"energy"`
	Plan       sched.PlanJSON  `json:"plan"`
	Resilience *ResilienceJSON `json:"resilience,omitempty"`
}

// evalPlatform is the evaluation platform every evaluate request prices
// on, built once: the retention distribution is read-only after
// construction, so requests share it.
var evalPlatform = sync.OnceValue(platform.Test)

// prepareEvaluate resolves an EvaluateRequest into its work: one Table
// IV design priced on one network, optionally through a non-default
// memory backend.
func (s *Server) prepareEvaluate(req EvaluateRequest) (*work, error) {
	d, err := resolveDesign(req.Design)
	if err != nil {
		return nil, err
	}
	net, err := resolveNetwork(req.Model, req.Network)
	if err != nil {
		return nil, err
	}
	// The backend axis of the evaluation matrix. Resolution against the
	// design's specialized configuration rejects unknown backends and
	// over-budget points at admission.
	p := evalPlatform()
	d = d.WithBackend(req.Backend, req.OperatingPoint)
	cfg := d.Apply(p.Base)
	_, pts, err := sched.ResolveBackend(cfg, p.Options(d))
	if err != nil {
		return nil, badRequest("invalid backend: %v", err)
	}
	normalized := mem.NormalizeName(d.Backend, cfg.BufferTech)
	if err := s.checkBackendAllowed(normalized); err != nil {
		return nil, err
	}
	// Responses on the approximate axis carry the error-budget frame. No
	// layer needs admitting on its own: every derived budget is at least
	// the uniform budget ResolveBackend admitted the points under
	// (TestLayerBudgetsNeverBelowUniform), so none can refuse them.
	var resilience *ResilienceJSON
	if anyFaulty(pts) {
		budgets, err := core.LayerBudgets(net, core.DefaultAccuracyConstraint, training.PaperRates)
		if err != nil {
			return nil, fmt.Errorf("serve: deriving layer budgets: %w", err)
		}
		resilience = &ResilienceJSON{
			ErrorBudget:  retention.TolerableFailureRate,
			Constraint:   core.DefaultAccuracyConstraint,
			LayerBudgets: budgets,
		}
	}
	w := &work{path: "/v1/evaluate", key: evaluateKey(d.Name, net, normalized, d.OperatingPoint)}
	w.compute = func(ctx context.Context) ([]byte, error) {
		res, err := p.EvaluateContext(ctx, d, net)
		if err != nil {
			return nil, wrapComputeErr(ctx, err)
		}
		if planFaulty(res.Plan) {
			s.m.FaultInjections.Add(1)
		}
		e := res.Energy()
		return marshalBody(EvaluateResponse{
			Design:  d.Name,
			Network: net.Name,
			Energy: EnergyJSON{
				Computing:    e.Computing,
				BufferAccess: e.BufferAccess,
				Refresh:      e.Refresh,
				OffChip:      e.OffChip,
				Wear:         e.Wear,
				Total:        e.Total(),
			},
			Plan:       sched.Encode(res.Plan),
			Resilience: resilience,
		})
	}
	return w, nil
}

// handleHealthz reports liveness; it never touches the worker pool, so
// it answers even when every slot is busy.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":    "ok",
		"in_flight": s.m.InFlight.Value(),
		"cached":    s.cache.Len(),
	}
	if s.cfg.Ring != nil {
		var peers []string
		for _, n := range s.cfg.Ring.Nodes() {
			peers = append(peers, n.ID)
		}
		doc["shard_id"] = s.self.ID
		doc["peers"] = peers
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		doc["store_entries"] = st.Entries
		doc["store_bytes"] = st.FileBytes
	}
	if s.jobs != nil {
		doc["jobs"] = s.jobs.len()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// handleMetrics serves the expvar document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.vars.String())
}

// OperatingPointJSON is one backend operating point in the catalog.
type OperatingPointJSON struct {
	Name           string  `json:"name"`
	AccessPJ       float64 `json:"access_pj"`
	RefreshPJ      float64 `json:"refresh_pj,omitempty"`
	WearPJ         float64 `json:"wear_pj,omitempty"`
	RetentionScale float64 `json:"retention_scale,omitempty"`
	BitErrorRate   float64 `json:"bit_error_rate,omitempty"`
	LatencyNS      float64 `json:"latency_ns,omitempty"`
}

// BackendJSON is one memory backend in the catalog: the third axis of
// the (network × backend × operating point) evaluation matrix.
type BackendJSON struct {
	Name        string               `json:"name"`
	Description string               `json:"description"`
	Role        string               `json:"role"`
	Refreshes   bool                 `json:"refreshes,omitempty"`
	Points      []OperatingPointJSON `json:"points"`
}

// catalogBackends projects the registry onto the catalog form, in the
// registry's sorted order.
func catalogBackends() []BackendJSON {
	var out []BackendJSON
	for _, name := range mem.Names() {
		bk, _ := mem.Lookup(name)
		b := BackendJSON{
			Name:        bk.Name(),
			Description: bk.Description(),
			Role:        bk.Role().String(),
			Refreshes:   bk.Refreshes(),
		}
		for _, p := range bk.Points() {
			b.Points = append(b.Points, OperatingPointJSON{
				Name:           p.Name,
				AccessPJ:       p.AccessPJ,
				RefreshPJ:      p.RefreshPJ,
				WearPJ:         p.WearPJ,
				RetentionScale: p.RetentionScale,
				BitErrorRate:   p.BitErrorRate,
				LatencyNS:      p.LatencyNS,
			})
		}
		out = append(out, b)
	}
	return out
}

// MappingJSON is one data-mapping policy in the catalog: the row/bank
// placement axis of the search space, with the energy scales its cost
// model applies to the buffer's operating-point table.
type MappingJSON struct {
	Name         string  `json:"name"`
	AccessScale  float64 `json:"access_scale"`
	RefreshScale float64 `json:"refresh_scale"`
}

// catalogMappings projects the registered mapping policies onto the
// catalog form, default first.
func catalogMappings() []MappingJSON {
	var out []MappingJSON
	for _, m := range sched.MappingPolicies() {
		out = append(out, MappingJSON{
			Name:         m.Name,
			AccessScale:  m.AccessScale,
			RefreshScale: m.RefreshScale,
		})
	}
	return out
}

// catalogTraversals advertises the traversal-axis grammar: the default
// spelling, what the "rtc" alias expands to, and the blocked stage-count
// range the spec accepts.
func catalogTraversals() map[string]any {
	var ladder []string
	if axis, err := sched.ParseTraversalSpec("rtc"); err == nil {
		for _, tr := range axis[1:] {
			ladder = append(ladder, tr.String())
		}
	}
	return map[string]any{
		"default":    sched.DefaultTraversalName,
		"rtc_ladder": ladder,
		"blocked_range": map[string]int{
			"min": 2,
			"max": sched.MaxTraversalBlocks,
		},
	}
}

// catalogResilience advertises the admission frame approximate-axis
// requests are gated against: the relative-accuracy constraint, the
// uniform Stage 1 error budget, the failure-rate ladder budgets are
// searched over, and every benchmark's derived per-layer budgets.
func catalogResilience() map[string]any {
	perModel := map[string]map[string]float64{}
	for _, net := range models.Benchmarks() {
		budgets, err := core.LayerBudgets(net, core.DefaultAccuracyConstraint, training.PaperRates)
		if err != nil {
			continue // a benchmark without a calibrated curve is simply not listed
		}
		perModel[net.Name] = budgets
	}
	return map[string]any{
		"constraint":    core.DefaultAccuracyConstraint,
		"error_budget":  retention.TolerableFailureRate,
		"ladder":        training.PaperRates,
		"layer_budgets": perModel,
	}
}

// handleCatalog lists what the service can schedule: benchmark models,
// built-in accelerators, Table IV designs, search strategies, the
// memory-backend registry with every operating point, and the
// resilience frame approximate points are admitted under.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	var designs []string
	for _, d := range platform.Designs() {
		designs = append(designs, d.Name)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"models":            benchmarkNames(),
		"accelerators":      builtinConfigNames(),
		"designs":           designs,
		"search_strategies": searchStrategyNames(),
		"backends":          catalogBackends(),
		"traversals":        catalogTraversals(),
		"mappings":          catalogMappings(),
		"resilience":        catalogResilience(),
	})
}

// checkBackendAllowed gates a request's backend against the server's
// allowlist. The name arrives normalized (mem.NormalizeName), so the
// default adapter — normalized to "" — always passes: the allowlist
// narrows the matrix without breaking legacy requests.
func (s *Server) checkBackendAllowed(normalized string) error {
	if normalized == "" || s.allowedBackends == nil || s.allowedBackends[normalized] {
		return nil
	}
	return badRequest("backend %q is not enabled on this server", normalized)
}

// marshalBody renders one response body. Bodies are marshaled exactly
// once per computation and then shared byte-for-byte by the cache and
// every deduplicated waiter.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: marshaling response: %w", err)
	}
	return append(body, '\n'), nil
}

// scheduleBody renders a /v1/schedule body: the bytes of
// marshalBody(*resp) with resp.Plan = sched.Encode(plan), appended in
// pooled scratch without reflection (resp.Plan itself is ignored).
// Schedule bodies are rendered on every miss of both retention sweeps;
// compile and evaluate bodies, encoded once per key, keep marshalBody.
// The returned body is an exact-length copy: the cache holds it for its
// lifetime, and a scratch-sized one would carry the slack along.
func scheduleBody(resp *ScheduleResponse, plan *sched.Plan) ([]byte, error) {
	bp := getScratch()
	b := jsonenc.String(append((*bp)[:0], `{"accelerator":`...), resp.Accelerator)
	b = strconv.AppendInt(append(b, `,"refresh_interval_ns":`...), resp.RefreshIntervalNS, 10)
	b = jsonenc.String(append(b, `,"controller":`...), resp.Controller)
	b, err := sched.AppendPlanJSON(append(b, `,"plan":`...), plan)
	if err != nil {
		putScratch(bp, b)
		return nil, fmt.Errorf("serve: marshaling response: %w", err)
	}
	b = jsonenc.OmitString(b, `,"search":`, resp.Search)
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = jsonenc.OmitString(b, `,"degraded_reason":`, resp.DegradedReason)
	b = append(b, "}\n"...)
	body := make([]byte, len(b))
	copy(body, b)
	putScratch(bp, b)
	return body, nil
}

// wrapComputeErr distinguishes scheduling failures caused by the
// caller's deadline from genuine infeasibility: a canceled computation
// surfaces the context error (mapped to 503/504 by the middleware),
// anything else is a 422 — the request was well formed but cannot be
// scheduled (e.g. no feasible tiling on the given hardware).
func wrapComputeErr(ctx context.Context, err error) error {
	var pe *sched.PanicError
	if errors.As(err, &pe) {
		// A recovered scheduler panic is a server bug (500), never a
		// 422 — surface it unwrapped so the middleware and breaker
		// classify it as a panic.
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
}
