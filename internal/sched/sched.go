// Package sched implements Stage 2 of the RANA framework: the layer-based
// scheduling scheme of Fig. 13. For each CONV layer it explores
// computation patterns and tiling parameters under the core local-storage
// constraints, estimates total system energy with the Eq. 14 model, and
// assigns the cheapest configuration — producing the hybrid computation
// pattern and the layerwise configurations (pattern, tiling, refresh
// flags) consumed by the execution phase.
package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// RetentionGuard is the safety margin applied when comparing a data
// lifetime against the refresh interval: a lifetime within 10% of the
// interval is not trusted to beat retention.
const RetentionGuard = 0.9

// Options configures one scheduling run — one design point of Table IV.
type Options struct {
	// Patterns is the exploration space. RANA uses {OD, WD} (§IV-C3: ID
	// is excluded — its lifetime is always longer than OD's and its
	// storage similar); the eD+ID / S+ID baselines pass {ID}, eD+OD
	// passes {OD}.
	Patterns []pattern.Kind

	// RefreshInterval is the refresh pulse period: the conventional
	// 45 µs, or the tolerable retention time from Stage 1 (734 µs at the
	// 10⁻⁵ failure rate). Ignored for SRAM buffers. It is not part of the
	// shared memo's key: one memo frontier per layer shape answers every
	// interval at or above the one it was built at.
	RefreshInterval time.Duration

	// Controller models refresh issue. Nil means no refresh at all
	// (SRAM designs).
	Controller memctrl.Controller

	// FixedTiling pins the tiling parameters instead of exploring —
	// used for the DaDianNao baseline (Tm=Tn=64, Tr=Tc=1, §V-C).
	FixedTiling *pattern.Tiling

	// NaturalTiling restricts each layer to the accelerator's natural
	// tiling — array-width tiles (Tm=ArrayM, Tn=ArrayN pixels worth of
	// Tr×Tc, clamped to the layer dimensions) — instead of exploring.
	// The Table IV baselines (S+ID, eD+ID, eD+OD) run this way: their
	// computation pattern is hardwired, only RANA explores (Fig. 13).
	NaturalTiling bool

	// RetentionGuard overrides the default guard band (RetentionGuard)
	// applied when comparing lifetimes against the refresh interval.
	// Zero selects the default; 1.0 disables the margin.
	RetentionGuard float64

	// Search selects the exploration strategy over the pattern × tiling
	// space: search.Exhaustive prices every candidate, search.Pruned
	// (the default — what the empty value resolves to) is branch-and-
	// bound with the same argmin, search.Beam prices only the most
	// promising candidates per layer. Ignored in NaturalTiling mode,
	// which is not an optimization at all (first feasible wins).
	Search search.Strategy

	// BeamWidth bounds search.Beam's exact evaluations per layer; zero
	// selects search.DefaultBeamWidth. Ignored by other strategies.
	BeamWidth int

	// Backend names the memory-technology backend (internal/mem
	// registry) the buffer is priced and refresh-modeled as. Empty
	// selects the config's default technology adapter ("edram" for
	// EDRAM configs, "sram" for SRAM), which reproduces the historical
	// hard-wired behavior byte-for-byte.
	Backend string

	// OperatingPoint pins the backend to one named operating point
	// (e.g. "v0.8"). Empty searches the backend's whole point ladder —
	// for multi-point backends the point becomes a third search axis
	// next to pattern and tiling.
	OperatingPoint string

	// ErrorBudget is the maximum raw bit-error rate an operating point
	// may exhibit and still enter the search space — the EDEN
	// resilience-curve admission. Zero selects the paper's tolerable
	// failure rate (10⁻⁵, Fig. 11).
	ErrorBudget float64

	// Traversal opens the tile-traversal-order search axis (RTC): a
	// ParseTraversalSpec grammar string naming the orders explored next
	// to pattern, tiling, operating point and mapping. Empty (or
	// "linear") keeps the axis at the paper's loop nest only — the
	// historical behavior, byte-identical plans. "rtc" searches the
	// blocked ladder; "blocked<n>" adds one stage count.
	Traversal string

	// Mapping opens the bank/row data-mapping search axis (PENDRAM): a
	// ParseMappingSpec grammar string naming the placement policies
	// explored. Empty (or "row-major") keeps the contiguous default
	// only; "interleave" adds the row-interleaved policy; "all" searches
	// every registered policy.
	Mapping string

	// LayerBudgets tightens the error budget per layer name with the
	// tolerable failure rates from Stage 1's per-layer resilience curves
	// (training.LayerTolerableRates): a layer listed here admits only
	// operating points whose bit-error rate fits its own curve, not just
	// the uniform budget. Layers absent from the map use ErrorBudget
	// unchanged; budgets only ever tighten. Excluded from the JSON
	// projection — the serving layer folds resolved budgets into its
	// cache key explicitly.
	LayerBudgets map[string]float64 `json:"-"`

	// Parallelism bounds how many layers a network compile explores at
	// once, each on its own goroutine (EffectiveParallelism resolves
	// it): zero selects GOMAXPROCS, and 1 explores on the calling
	// goroutine. Each layer's search runs on one goroutine, so plans and
	// NetworkStats are identical at every level: Parallelism is a
	// throughput knob, not a semantic one, and is excluded from the memo
	// key and the serving cache key.
	Parallelism int

	// Memo, when non-nil, shares completed layer-shape explorations
	// across schedules (see Memo). Repeated shapes inside one compile
	// need no memo: the network entry points explore each distinct
	// shape once and copy its plan to the repeats (the in-compile
	// dedup) unless DisableMemo is set, whether Memo is nil, warm or
	// full. The layer-level entry point (ExploreLayer) never memoizes
	// on its own.
	Memo *Memo `json:"-"`

	// DisableMemo turns off the in-compile dedup, so every layer a
	// shared Memo does not serve is explored — the benchmark baseline
	// and the differential matrix's memo-off variants use it to compare
	// against un-memoized exploration. A non-nil Memo is still
	// consulted.
	DisableMemo bool

	// Prefix, when non-nil, makes the network entry points' incremental
	// bound pricing read its prefix sums through this shared PrefixMemo.
	// When nil (the default) each pricing context computes them. Plans
	// are byte-identical either way; DisableIncremental bypasses it.
	Prefix *PrefixMemo `json:"-"`

	// DisableIncremental turns off incremental bound pricing (the
	// per-goroutine pricing contexts and any Prefix memo), forcing every
	// lower-bound computation through the stateless reference evaluator.
	// Plans are bit-identical either way — this is the baseline the
	// differential matrix (verify.Matrix) and the benchmark harness
	// compare against, not a semantic knob.
	DisableIncremental bool
}

// Guard returns the effective guard-band factor (the override, or the
// package default) — the multiplier external checkers must apply when
// re-deriving refresh decisions from lifetimes.
func (o Options) Guard() float64 { return guardFactor(o.RetentionGuard) }

// guardFactor resolves a guard-band override (zero selects the package
// default) — Guard without the Options receiver copy, for the
// per-candidate pricing path.
func guardFactor(override float64) float64 {
	if override > 0 {
		return override
	}
	return RetentionGuard
}

// Fallback returns the cheap degraded-mode variant of the options: the
// single-candidate uniform schedule ranad's degradation ladder falls
// back to when a request's deadline budget cannot pay for the full
// hybrid exploration. The pattern space collapses to the paper's
// non-hybrid baselines (OD first, WD as a reserve for layers OD cannot
// fit) at the accelerator's natural tiling, so each layer is priced in
// a handful of candidate evaluations instead of thousands — trading
// schedule quality (more refresh/off-chip energy, like Table IV's
// eD+OD) for bounded latency. Refresh interval, controller and guard
// band are preserved.
func (o Options) Fallback() Options {
	o.Patterns = []pattern.Kind{pattern.OD, pattern.WD}
	o.NaturalTiling = true
	o.FixedTiling = nil
	// Collapse the operating-point axis: degraded mode prices the
	// backend's safe datasheet corner only, never the approximate
	// ladder — one less dimension of work under a tight deadline.
	if o.OperatingPoint == "" {
		o.OperatingPoint = mem.Nominal
	}
	// Collapse the traversal and mapping axes to their defaults (linear
	// nest, row-major placement) for the same reason: degraded mode
	// prices one cell per candidate, never a ladder.
	o.Traversal = ""
	o.Mapping = ""
	return o
}

// PanicError is a panic recovered at a scheduling boundary and converted
// into an error: the per-layer exploration goroutines recover panics so
// a malformed candidate cannot kill a process that runs the scheduler as
// a service. Value is the recovered panic value; Stack the goroutine
// stack at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Recovered converts a value recovered at a scheduling boundary into a
// PanicError carrying the recovering goroutine's stack, which still
// holds the panic site: a layer's exploration recovers on the goroutine
// that explored it. Call it from the deferred recover itself.
func Recovered(r any) *PanicError {
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// MaxParallelism caps the layers one compile explores at once. The cap
// bounds goroutine count against hostile or mistaken configuration;
// beyond the machine's core count extra workers only add contention.
const MaxParallelism = 256

// EffectiveParallelism resolves a configured parallelism level: zero (or
// negative) selects GOMAXPROCS, and every level is capped at
// MaxParallelism. The result is the worker bound, not a promise — a
// compile never starts more workers than it has layers to explore.
func EffectiveParallelism(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return min(p, MaxParallelism)
}

// Validate reports configuration errors.
func (o Options) Validate() error {
	if len(o.Patterns) == 0 {
		return fmt.Errorf("sched: no patterns to explore")
	}
	if o.Controller != nil && o.RefreshInterval <= 0 {
		return fmt.Errorf("sched: controller set but refresh interval %v invalid", o.RefreshInterval)
	}
	if o.FixedTiling != nil {
		if err := o.FixedTiling.Validate(); err != nil {
			return err
		}
	}
	if err := o.Search.Validate(); err != nil {
		return err
	}
	if o.BeamWidth < 0 {
		return fmt.Errorf("sched: negative beam width %d", o.BeamWidth)
	}
	if o.Backend != "" {
		b, ok := mem.Lookup(o.Backend)
		if !ok {
			return fmt.Errorf("sched: unknown memory backend %q", o.Backend)
		}
		if b.Role() != mem.RoleBuffer {
			return fmt.Errorf("sched: backend %q is %s-role, not a buffer", o.Backend, b.Role())
		}
	}
	if !(o.RetentionGuard >= 0 && o.RetentionGuard <= 1) {
		return fmt.Errorf("sched: retention guard %g outside [0, 1]", o.RetentionGuard)
	}
	if !(o.ErrorBudget >= 0 && o.ErrorBudget <= 1) {
		return fmt.Errorf("sched: error budget %g outside [0, 1]", o.ErrorBudget)
	}
	// Empty specs are the always-valid defaults. The others are looked
	// up in the spec memos, so repeated validation (once per compile)
	// does not parse them again.
	if o.Traversal != "" {
		if _, err := traversalSpecs.get(o.Traversal); err != nil {
			return err
		}
	}
	if o.Mapping != "" {
		if _, err := mappingSpecs.get(o.Mapping); err != nil {
			return err
		}
	}
	for name, lb := range o.LayerBudgets {
		if math.IsNaN(lb) || lb < 0 || lb > 1 {
			return fmt.Errorf("sched: layer %q error budget %g outside [0, 1]", name, lb)
		}
	}
	return nil
}

// LayerPlan is one layer's chosen configuration with its full analytical
// characterization and energy estimate — one entry of the layerwise
// configurations RANA compiles (§IV-A Stage 2).
type LayerPlan struct {
	Analysis pattern.Analysis
	// Needs are the per-data-type refresh flags at the plan's interval.
	Needs memctrl.Needs
	// Alloc is the unified buffer system's bank assignment.
	Alloc memctrl.Allocation
	// Counts are the layer's Eq. 14 operation counts (α, βb, γ, βd).
	Counts energy.Counts
	// Energy is the layer's estimated system energy breakdown.
	Energy energy.Breakdown
	// Point names the memory-backend operating point the layer was
	// priced at; empty means the backend's nominal corner (the only
	// possibility on single-point backends, so pre-backend plans carry
	// the zero value).
	Point string
	// Traversal names the chosen tile traversal order; empty means the
	// linear nest (the default axis value, so pre-axis plans carry the
	// zero value). Mirrors Analysis.Traversal in canonical spelling.
	Traversal string
	// Mapping names the chosen data-mapping policy; empty means
	// row-major placement.
	Mapping string
}

// RefreshFlags expands the plan into per-bank refresh flags for a buffer
// of totalBanks banks, in allocation order (inputs, outputs, weights);
// unallocated banks are unflagged. This is the bit vector the
// refresh-optimized controller of Fig. 14 loads per layer.
func (lp LayerPlan) RefreshFlags(totalBanks int) []bool {
	flags := make([]bool, totalBanks)
	mark := func(start, n int, on bool) int {
		for i := 0; i < n && start+i < totalBanks; i++ {
			flags[start+i] = on
		}
		return start + n
	}
	pos := 0
	pos = mark(pos, lp.Alloc.InputBanks, lp.Needs.Inputs)
	pos = mark(pos, lp.Alloc.OutputBanks, lp.Needs.Outputs)
	mark(pos, lp.Alloc.WeightBanks, lp.Needs.Weights)
	return flags
}

// Plan is a whole-network schedule: the hybrid computation pattern plus
// network totals.
type Plan struct {
	Network  models.Network
	Config   hw.Config
	Options  Options
	Layers   []LayerPlan
	Totals   energy.Counts
	Energy   energy.Breakdown
	ExecTime time.Duration
}

// Schedule plans every layer of the network on the accelerator,
// implementing the optimization loop of Fig. 13.
func Schedule(net models.Network, cfg hw.Config, opts Options) (*Plan, error) {
	return ScheduleContext(context.Background(), net, cfg, opts)
}

// ScheduleContext is Schedule with cancellation: the per-layer
// exploration loop checks ctx between layers and aborts early, returning
// ctx.Err() wrapped with the layer reached. Long-running callers (the
// serving subsystem, CLIs under signal control) use this entry point;
// Schedule is ScheduleContext under context.Background().
func ScheduleContext(ctx context.Context, net models.Network, cfg hw.Config, opts Options) (*Plan, error) {
	p, _, err := ExploreNetworkContext(ctx, net, cfg, opts)
	return p, err
}

// NetworkStats aggregates one whole-network schedule's exploration work.
// Search sums only the work actually performed — a memo hit contributes
// nothing to it, exactly like the exploration it skipped.
type NetworkStats struct {
	// Search is the summed per-layer search work, the same at every
	// Parallelism.
	Search search.Stats
	// MemoHits counts layers served without exploring: answered from a
	// shared memo frontier (at any interval it covers, so a hit still
	// costs one exact evaluation), or copied from an earlier same-shaped
	// layer of the compile.
	MemoHits int
	// MemoMisses counts layers that had to explore. Hits + Misses equals
	// the layer count, saturated memo or not, unless DisableMemo was set
	// with no shared memo (then both are zero).
	MemoMisses int
	// PrefixHits and PrefixMisses count the bound prefix-sum lookups the
	// compile's exploration served from (respectively computed into)
	// Options.Prefix. Zero when Prefix is nil or incremental pricing is
	// disabled. The counts are deltas over the shared memo's counters
	// and may include a concurrent compile's lookups.
	PrefixHits   uint64
	PrefixMisses uint64
}

// ExploreNetworkContext is ScheduleContext with the aggregate work
// accounting exposed: summed search counters plus memo effectiveness.
// The benchmark harness and ranad's /metrics consume the stats.
func ExploreNetworkContext(ctx context.Context, net models.Network, cfg hw.Config, opts Options) (*Plan, NetworkStats, error) {
	p := &Plan{}
	ns, err := ExploreNetworkInto(ctx, net, cfg, opts, p)
	if err != nil {
		return nil, ns, err
	}
	return p, ns, nil
}

// ExploreLayer explores the configured pattern × tiling space for one
// layer and returns the minimum-energy plan with the search statistics:
// how many tilings were enumerated, how many candidates the strategy
// bounded, pruned and exactly priced. The verification matrix and the
// benchmarks consume the counters. The network compile path resolves
// the environment once and calls exploreLayerEnv directly.
func ExploreLayer(l models.ConvLayer, cfg hw.Config, opts Options) (LayerPlan, search.Stats, error) {
	if err := opts.Validate(); err != nil {
		return LayerPlan{}, search.Stats{}, err
	}
	env, err := envFor(opts)
	if err != nil {
		return LayerPlan{}, search.Stats{}, err
	}
	return exploreLayerEnv(l, cfg, opts, env)
}

// naturalSchedule is the baseline path: it does not optimize, it takes
// the first feasible candidate kind-major over the natural reduction
// order (OD across every tiling before WD sees any — the Table IV
// baselines' hardwired behavior), so it cannot go through the
// tiling-major engine. The tiling space is pattern-independent:
// enumerated once and core-filtered once, shared across kinds. The
// operating-point axis does not apply: a non-optimizing baseline prices
// the single resolved point (pinned, or the backend's nominal corner).
func naturalSchedule(l models.ConvLayer, cfg hw.Config, opts Options,
	bk mem.Backend, pt mem.OperatingPoint) (LayerPlan, search.Stats, error) {
	var stats search.Stats
	e := effectiveLayer(l)
	tilings := candidateTilings(l, cfg, opts)
	stats.Tilings = len(tilings)
	fit := make([]pattern.Tiling, 0, len(tilings))
	for _, t := range tilings {
		if t.FitsCore(e, cfg) {
			fit = append(fit, t)
		}
	}
	stats.Admitted = len(fit)
	var lp LayerPlan
	for _, k := range opts.Patterns {
		for _, t := range fit {
			stats.Candidates++
			if err := evaluateCellInto(&lp, &l, k, t, &cfg, &opts, bk, &pt, pattern.Linear, RowMajorMapping); err != nil {
				return LayerPlan{}, stats, err
			}
			stats.Evaluated++
			if lp.Analysis.Feasible {
				return lp, stats, nil
			}
		}
	}
	return LayerPlan{}, stats, fmt.Errorf("no feasible tiling for layer %q", l.Name)
}

// Evaluate characterizes one candidate (pattern, tiling) and prices it
// with the Eq. 14 energy model, including the design's refresh policy,
// at the options' resolved memory backend and operating point (the
// pinned point, or the backend's nominal corner — the single-point view
// external checkers and the baseline paths price). Malformed candidates
// (invalid layer or tiling, unknown pattern or array mapping) are
// reported as errors rather than panics; cfg must otherwise be valid
// (callers validate once at the public entry points).
func Evaluate(l models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg hw.Config, opts Options) (LayerPlan, error) {
	bk, points, err := ResolveBackendForLayer(cfg, opts, l.Name)
	if err != nil {
		return LayerPlan{}, err
	}
	var lp LayerPlan
	if err := evaluateCellInto(&lp, &l, k, t, &cfg, &opts, bk, &points[0], pattern.Linear, RowMajorMapping); err != nil {
		return LayerPlan{}, err
	}
	return lp, nil
}

// evaluateCellInto characterizes and prices one full search cell — a
// (pattern, tiling) candidate at one resolved (operating point,
// traversal order, mapping policy) — into a caller-owned plan: the
// single exact-pricing path every strategy, baseline and axis
// combination goes through. The traversal reshapes the analysis
// (lifetimes, DDR reloads); the mapping reshapes the pricing table;
// defaults of both reproduce the pre-axis path bit for bit.
//
// Nothing large is copied per candidate: the analysis is written in
// place (pattern.AnalyzeTraversalInto), and the layer, configuration,
// options and operating point are read through pointers, never through
// their value-receiver helpers (Banks, Guard), which copy the whole
// struct even when inlined. Every LayerPlan field is overwritten (Needs
// explicitly, since the refresh branch may not run), so a reused *lp
// never leaks a previous candidate's state; on an error *lp is
// unspecified.
func evaluateCellInto(lp *LayerPlan, l *models.ConvLayer, k pattern.Kind, t pattern.Tiling, cfg *hw.Config, opts *Options,
	bk mem.Backend, pt *mem.OperatingPoint, trv pattern.Traversal, mp MappingPolicy) error {
	a := &lp.Analysis
	if err := pattern.AnalyzeTraversalInto(a, l, k, t, cfg, trv); err != nil {
		return err
	}
	banks := hw.BankCount(cfg.BufferWords, cfg.BankWords)
	lp.Point = mem.NormalizePoint(pt.Name)
	lp.Traversal = traversalName(trv)
	lp.Mapping = mappingName(mp)
	lp.Alloc = memctrl.Allocate(a.BufferStorage, cfg.BankWords, banks)
	lp.Needs = memctrl.Needs{}
	var refreshes uint64
	if opts.Controller != nil && bk.Refreshes() {
		lp.Needs, refreshes = refreshAt(opts, pt, a.Lifetimes, a.ExecTime, lp.Alloc, banks, cfg.BankWords)
	}
	lp.Counts = energy.Counts{
		MACs:           a.MACs,
		BufferAccesses: a.BufferTraffic.Total(),
		Refreshes:      refreshes,
		DDRAccesses:    a.DDRTraffic.Total(),
		BufferWrites:   a.BufferWrites,
	}
	lp.Energy = energy.SystemTable(lp.Counts, mp.Apply(pt.Table()))
	return nil
}

// refreshAt prices one candidate's refresh at the options' interval and
// one operating point: its per-type refresh flags and γ word count. It
// is the only place the interval enters a candidate's price —
// evaluateCellInto and the memo's frontier query both call it — and
// both factors of the word count (pulses, words per pulse) never
// increase with the interval, so neither does a candidate's exact
// energy (DESIGN §11). The caller has checked that a controller is set
// and the backend refreshes.
//
// Refresh decisions keep a retention guard band: data is deemed
// refresh-free only when its lifetime clears the interval with margin,
// absorbing clock quantization and process variation. Reduced-voltage
// operating points shift the whole retention curve left
// (RetentionScale), so the schedule's interval — a point on that curve
// — scales identically.
func refreshAt(opts *Options, pt *mem.OperatingPoint, lt pattern.Lifetimes, exec time.Duration,
	alloc memctrl.Allocation, banks, bankWords int) (memctrl.Needs, uint64) {
	interval := scaleInterval(opts.RefreshInterval, pt.RetentionScale)
	guarded := time.Duration(float64(interval) * guardFactor(opts.RetentionGuard))
	needs := memctrl.NeedsFor(lt, guarded)
	return needs, memctrl.RefreshWords(opts.Controller, exec, interval, alloc, needs, banks, bankWords)
}

// scaleInterval scales a refresh interval by an operating point's
// retention factor. Scale 1 returns the interval untouched — no float
// round trip — so nominal-point schedules are bit-identical to the
// pre-backend path.
func scaleInterval(interval time.Duration, scale float64) time.Duration {
	if scale == 1 {
		return interval
	}
	return time.Duration(float64(interval) * scale)
}

// effectiveLayer returns the per-group sub-layer whose dimensions the
// core constraints see (grouped convolutions run one group at a time).
func effectiveLayer(l models.ConvLayer) models.ConvLayer {
	if l.Groups <= 1 {
		return l
	}
	l.N /= l.Groups
	l.M /= l.Groups
	l.Groups = 1
	return l
}

// tileSizes fills the scratch buf with a layer's candidate tile sizes
// and returns the four lists cut from it: Tm, Tn, Tr and Tc, whose cross
// product is the layer's tiling space. Along each axis of the effective
// layer e the candidates are search.AppendAxis's: the powers of two
// below the dimension, the PE-array width and the dimension itself. A
// pinned tiling collapses each list to its one value. The lists are cut
// after the last append, so a growing buf leaves none of them stale.
func tileSizes(buf *[]int, e *models.ConvLayer, cfg *hw.Config, fixed *pattern.Tiling) (tm, tn, tr, tc []int) {
	a := (*buf)[:0]
	var at [3]int // where Tn, Tr and Tc start
	if fixed != nil {
		a = append(a, fixed.Tm, fixed.Tn, fixed.Tr, fixed.Tc)
		at = [3]int{1, 2, 3}
	} else {
		a = search.AppendAxis(a, e.M, cfg.ArrayM)
		at[0] = len(a)
		a = search.AppendAxis(a, e.N, cfg.ArrayN)
		at[1] = len(a)
		a = search.AppendAxis(a, e.R(), cfg.ArrayM)
		at[2] = len(a)
		a = search.AppendAxis(a, e.C(), cfg.ArrayN)
	}
	*buf = a
	return a[:at[0]], a[at[0]:at[1]], a[at[1]:at[2]], a[at[2]:]
}

// candidateTilings lists a layer's tiling space: the cross product of
// tileSizes's lists in the order the search engine enumerates it (Tm
// outermost, Tc innermost), or, for the NaturalTiling baseline without
// a pinned tiling, the natural reduction order. It serves the baseline
// path and the brute-force test oracles.
func candidateTilings(l models.ConvLayer, cfg hw.Config, opts Options) []pattern.Tiling {
	e := effectiveLayer(l)
	if opts.NaturalTiling && opts.FixedTiling == nil {
		return naturalTilings(e, cfg)
	}
	var buf []int
	tms, tns, trs, tcs := tileSizes(&buf, &e, &cfg, opts.FixedTiling)
	out := make([]pattern.Tiling, 0, len(tms)*len(tns)*len(trs)*len(tcs))
	for _, tm := range tms {
		for _, tn := range tns {
			for _, tr := range trs {
				for _, tc := range tcs {
					out = append(out, pattern.Tiling{Tm: tm, Tn: tn, Tr: tr, Tc: tc})
				}
			}
		}
	}
	return out
}

// NaturalTiling returns the accelerator's native tile for a layer:
// ArrayM output channels, ArrayN input channels (clamped), one output row
// of up to ArrayN pixels — the ⟨16, 16, 1, 16⟩ mapping of the paper's
// running cases (§III-B, §IV-C1).
func NaturalTiling(l models.ConvLayer, cfg hw.Config) pattern.Tiling {
	return pattern.Tiling{
		Tm: min(cfg.ArrayM, l.M),
		Tn: min(cfg.ArrayN, l.N),
		Tr: 1,
		Tc: min(cfg.ArrayN, l.C()),
	}
}

// naturalTilings returns the baseline reduction order: the natural tiling
// first, then successively halved Tn (a too-large working set is shed by
// loading fewer input channels per pass, §IV-C1), then halved Tm. The
// baseline scheduler takes the first feasible entry.
func naturalTilings(l models.ConvLayer, cfg hw.Config) []pattern.Tiling {
	nat := NaturalTiling(l, cfg)
	out := []pattern.Tiling{nat}
	for tn := nat.Tn / 2; tn >= 1; tn /= 2 {
		t := nat
		t.Tn = tn
		out = append(out, t)
	}
	for tm := nat.Tm / 2; tm >= 1; tm /= 2 {
		t := nat
		t.Tn = 1
		t.Tm = tm
		out = append(out, t)
	}
	return out
}
