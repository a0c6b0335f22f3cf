// Package core assembles the full RANA framework of Fig. 6: the
// three-stage workflow that takes a CNN accelerator and a target CNN
// model and produces the configurations an execution phase runs with.
//
//	Stage 1 (training):    tolerable failure rate → tolerable retention time
//	Stage 2 (scheduling):  hybrid computation pattern + layerwise configs
//	Stage 3 (architecture): per-bank refresh flags + clock-divider setting
//
// Stages 1 and 2 form the compilation phase; Stage 3's outputs program
// the refresh-optimized eDRAM controller during execution.
package core

import (
	"context"
	"fmt"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/platform"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/training"
)

// Framework is a configured RANA instance.
type Framework struct {
	// Platform is the accelerator + retention distribution under
	// optimization.
	Platform *platform.Platform
	// AccuracyConstraint is the minimum relative accuracy Stage 1 must
	// preserve (DefaultAccuracyConstraint reproduces the paper).
	AccuracyConstraint float64
	// Rates is the failure-rate ladder Stage 1 searches.
	Rates []float64
	// Search selects Stage 2's exploration strategy (empty resolves to
	// the branch-and-bound default, search.Pruned).
	Search search.Strategy
	// Parallelism bounds how many layers Stage 2 explores at once
	// (sched.Options.Parallelism): zero selects GOMAXPROCS; 1 explores
	// on the calling goroutine. Plans are byte-identical at every level.
	Parallelism int
	// Memo, when non-nil, shares layer-shape exploration results across
	// compiles (sched.Options.Memo); ranad installs a server-wide memo
	// here. Repeated shapes inside one compile explore once either way
	// (the scheduler's in-compile dedup), nil, warm or full.
	Memo *sched.Memo
	// Prefix, when non-nil, makes Stage 2's lower bound read its
	// (kind, Tm, Tn) prefix sums through this shared memo
	// (sched.Options.Prefix); nil, the default, has each exploring
	// bound compute them. Like Memo it never changes plan bytes.
	Prefix *sched.PrefixMemo
	// Backend names the memory-technology backend Stage 2 prices buffers
	// with (sched.Options.Backend); empty selects the platform's default
	// technology adapter — the historical hard-wired path, byte for byte.
	Backend string
	// OperatingPoint pins one of the backend's operating points; empty
	// searches over every point within the error budget.
	OperatingPoint string
	// Traversal opens Stage 2's tile-traversal-order axis
	// (sched.Options.Traversal, ParseTraversalSpec grammar); empty keeps
	// the default linear nest only.
	Traversal string
	// Mapping opens Stage 2's data-mapping axis (sched.Options.Mapping,
	// ParseMappingSpec grammar); empty keeps row-major placement only.
	Mapping string
}

// DefaultAccuracyConstraint is Stage 1's default relative-accuracy
// constraint: the paper requires no accuracy loss, and 0.995 reproduces
// its 10⁻⁵ decision. New compiles at it, and ranad derives at it the
// per-layer error budgets approximate operating points are admitted
// under.
const DefaultAccuracyConstraint = 0.995

// New returns a framework on the paper's evaluation platform with the
// paper's search parameters.
func New() *Framework {
	return &Framework{
		Platform:           platform.Test(),
		AccuracyConstraint: DefaultAccuracyConstraint,
		Rates:              training.PaperRates,
	}
}

// LayerBudgets is Stage 1's per-layer decision: the tolerable failure
// rate of each of net's layers, read off its calibrated resilience
// curve by searching rates under the relative-accuracy constraint.
// Stage 2 admits operating points layer by layer against these budgets.
func LayerBudgets(net models.Network, constraint float64, rates []float64) (map[string]float64, error) {
	names := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		names[i] = l.Name
	}
	return training.LayerTolerableRates(net.Name, names, constraint, rates)
}

// LayerConfig is one entry of the layerwise configurations produced by
// the compilation phase (§IV-A): the computation pattern with tiling, and
// the per-bank refresh flags Stage 3 loads when the layer starts.
type LayerConfig struct {
	Layer        models.ConvLayer
	Pattern      pattern.Kind
	Tiling       pattern.Tiling
	RefreshFlags []bool
}

// Output is the result of compiling one network.
type Output struct {
	// TolerableRate and TolerableRetention are Stage 1's products.
	TolerableRate      float64
	TolerableRetention time.Duration
	// Config is the design-specialized accelerator configuration the
	// schedule targets (eDRAM buffers at the design capacity).
	Config hw.Config
	// DividerRatio programs the controller's clock divider (Fig. 14).
	DividerRatio uint64
	// LayerBudgets are Stage 1's per-layer tolerable failure rates from
	// the calibrated resilience curves; Stage 2 admits operating points
	// per layer against them.
	LayerBudgets map[string]float64
	// Plan is Stage 2's full schedule with energy accounting.
	Plan *sched.Plan
	// Layerwise are the per-layer execution configurations.
	Layerwise []LayerConfig
	// Energy is the estimated whole-network system energy.
	Energy energy.Breakdown
	// Stats is Stage 2's aggregate exploration work: summed search
	// counters plus memo effectiveness. ranad's /metrics and the
	// benchmark harness consume it; ExportConfig's wire projection
	// excludes it, so recording work does not perturb cached bodies.
	Stats sched.NetworkStats
}

// Compile runs the compilation phase (Stages 1 and 2) and derives the
// Stage 3 programming for the given network.
func (f *Framework) Compile(net models.Network) (*Output, error) {
	return f.CompileContext(context.Background(), net)
}

// CompileContext is Compile with cancellation: Stage 2's per-layer
// scheduling loop observes ctx and aborts early with ctx.Err() wrapped
// with the layer reached. Compile is CompileContext under
// context.Background().
func (f *Framework) CompileContext(ctx context.Context, net models.Network) (out *Output, err error) {
	// The stages call deep into pattern/sched/memctrl; a bug there must
	// surface to callers (ranad keeps serving other requests) as an
	// error, not kill the process.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, sched.Recovered(r)
		}
	}()
	if f.Platform == nil {
		return nil, fmt.Errorf("core: nil platform")
	}
	if f.AccuracyConstraint <= 0 || f.AccuracyConstraint > 1 {
		return nil, fmt.Errorf("core: accuracy constraint %g outside (0,1]", f.AccuracyConstraint)
	}
	// Stage 1: tolerable failure rate under the accuracy constraint,
	// converted to a retention time by the platform's distribution.
	rate, err := training.TolerableRate(f.AccuracyConstraint, f.Rates)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Stage 1, per layer: each layer's own tolerable failure rate from
	// its calibrated resilience curve. Stage 2's operating-point
	// admission checks candidate points against these, not just the
	// scalar decision.
	layerBudgets, err := LayerBudgets(net, f.AccuracyConstraint, f.Rates)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Stage 2: hybrid-pattern scheduling at the tolerable interval with
	// the refresh-optimized controller (the full RANA design point). A
	// platform that already has eDRAM buffers keeps its own capacity;
	// an SRAM base is refitted to the paper's equal-area 1.454 MB. The
	// design's interval is the rate's retention time under the
	// platform's distribution (TolerableRate never returns 0).
	design := platform.RANAStarE5().WithBackend(f.Backend, f.OperatingPoint)
	design.FailureRate = rate
	if f.Platform.Base.BufferTech == energy.EDRAM {
		design.BufferWords = 0
	}
	cfg := design.Apply(f.Platform.Base)
	opts := f.Platform.Options(design)
	opts.Search = f.Search
	opts.Parallelism = f.Parallelism
	opts.Memo = f.Memo
	opts.Prefix = f.Prefix
	opts.Traversal = f.Traversal
	opts.Mapping = f.Mapping
	opts.LayerBudgets = layerBudgets
	rt := opts.RefreshInterval
	plan, stats, err := sched.ExploreNetworkContext(ctx, net, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Stage 3 programming: divider ratio and per-layer refresh flags.
	div, err := memctrl.NewDivider(cfg.FrequencyHz, rt)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out = &Output{
		TolerableRate:      rate,
		TolerableRetention: rt,
		LayerBudgets:       layerBudgets,
		Config:             cfg,
		DividerRatio:       div.Ratio(),
		Plan:               plan,
		Energy:             plan.Energy,
		Stats:              stats,
	}
	for i, lp := range plan.Layers {
		out.Layerwise = append(out.Layerwise, LayerConfig{
			Layer:        net.Layers[i],
			Pattern:      lp.Analysis.Pattern,
			Tiling:       lp.Analysis.Tiling,
			RefreshFlags: lp.RefreshFlags(cfg.Banks()),
		})
	}
	return out, nil
}

// Controller builds the Stage 3 refresh machinery (divider + issuer) for
// the compiled configuration, programmed to the compiled retention time.
// The caller loads each layer's flags as execution proceeds.
func (o *Output) Controller() (*memctrl.Issuer, error) {
	div, err := memctrl.NewDivider(o.Config.FrequencyHz, o.TolerableRetention)
	if err != nil {
		return nil, err
	}
	return memctrl.NewIssuer(div, o.Config.Banks())
}

// Summary formats the compilation outcome in one line per stage.
func (o *Output) Summary() string {
	refreshFree := 0
	for _, lc := range o.Layerwise {
		free := true
		for _, flag := range lc.RefreshFlags {
			if flag {
				free = false
				break
			}
		}
		if free {
			refreshFree++
		}
	}
	return fmt.Sprintf(
		"stage1: tolerable rate %.0e -> retention %v\n"+
			"stage2: %d layers scheduled, energy %.3f mJ\n"+
			"stage3: divider ratio %d, %d/%d layers refresh-free",
		o.TolerableRate, o.TolerableRetention,
		len(o.Layerwise), o.Energy.Total()/1e9,
		o.DividerRatio, refreshFree, len(o.Layerwise))
}

// Verify re-derives Stage 1's decision against the retention anchors —
// a guard used by tests and the CLI to confirm the compiled interval
// matches the paper's 734 µs when the constraint reproduces the paper's.
func (o *Output) Verify() error {
	if o.TolerableRetention < retention.TypicalRetentionTime {
		return fmt.Errorf("core: compiled retention %v below the conventional %v",
			o.TolerableRetention, retention.TypicalRetentionTime)
	}
	if len(o.Layerwise) != len(o.Plan.Layers) {
		return fmt.Errorf("core: %d layer configs for %d plans", len(o.Layerwise), len(o.Plan.Layers))
	}
	return nil
}
