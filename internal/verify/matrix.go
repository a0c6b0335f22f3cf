package verify

// The differential matrix. Every axis the Fig. 13 loop grew makes one of
// a handful of claims against another configuration of the same loop:
// the pruned branch-and-bound, the layer pool, the layer-shape memo and
// the spelled-out defaults claim the reference plan's exact wire bytes;
// a shared memo swept across refresh intervals claims the bytes of the
// same setting compiled cold, also at the interval where a layer's plan
// changes and the nanosecond before it; the budgeted beam claims it
// never beats the exact optimum; the RTC traversal × PENDRAM mapping space
// claims it never loses to the default-only one. Matrix states each
// claim once, as a declarative variant: the setting it runs, the setting
// it is compared against, and the relation between them. A setting is
// compiled once per (network, config) however many variants point at
// it, and every compile goes through one seam (compiler), which is what
// the mutation tests wrap.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/sim"
)

// Setting is one point of the scheduler's configuration space: the
// knobs a variant may turn on top of the caller's scheduling frame.
type Setting struct {
	Strategy search.Strategy
	// Workers is how many layers a compile explores at once
	// (sched.Options.Parallelism); DefaultMatrix resolves GOMAXPROCS when
	// it is built, so a setting's name says what actually ran.
	Workers int
	// Memo enables the scheduler's in-compile shape dedup (repeated
	// layer shapes explored once per compile).
	Memo bool
	// Axes searches traversal "rtc" × mapping "all" instead of the
	// default axes.
	Axes bool
	// Spelled spells the defaults out — traversal "linear", mapping
	// "row-major" and the configuration's default backend by name —
	// instead of leaving them empty. It overrides Axes.
	Spelled bool
	// Natural compiles the natural-tiling baseline instead of exploring.
	Natural bool
	// Parametric compiles on one shared memo that first compiled the
	// network at four times and a quarter of the frame's refresh
	// interval, so every layer is answered from a frontier rebuilt below
	// the frame's interval and queried at it.
	Parametric bool
	// Edge moves the refresh interval to the network's first plan change
	// above a quarter of the frame's (edgeInterval): 1 compiles at the
	// first nanosecond of the new plan, -1 at the last nanosecond of the
	// old one, 0 keeps the frame's interval.
	Edge int
}

// Name renders the setting compactly, e.g. "pruned/p2/memo/axes".
func (s Setting) Name() string {
	name := fmt.Sprintf("%s/p%d", s.Strategy, s.Workers)
	if s.Memo {
		name += "/memo"
	}
	if s.Axes {
		name += "/axes"
	}
	if s.Spelled {
		name += "/spelled"
	}
	if s.Natural {
		name += "/natural"
	}
	if s.Parametric {
		name += "/parametric"
	}
	switch s.Edge {
	case 1:
		name += "/edge"
	case -1:
		name += "/edge-1ns"
	}
	return name
}

// options applies the setting to the caller's scheduling frame.
func (s Setting) options(base sched.Options, cfg hw.Config) sched.Options {
	o := base
	o.Search = s.Strategy
	o.Parallelism = s.Workers
	o.Memo, o.DisableMemo = nil, !s.Memo
	o.Prefix = nil
	o.NaturalTiling = s.Natural
	o.Traversal, o.Mapping = "", ""
	if s.Axes {
		o.Traversal, o.Mapping = "rtc", "all"
	}
	if s.Spelled {
		o.Traversal, o.Mapping = "linear", "row-major"
		if o.Backend == "" {
			o.Backend = mem.DefaultName(cfg.BufferTech)
		}
	}
	return o
}

// Relation is what a variant's outcome must satisfy against its
// reference's.
type Relation int

const (
	// SameBytes: byte-identical wire plans, or identical error text when
	// both fail.
	SameBytes Relation = iota
	// NeverCheaper: a budgeted search may lose to the exact optimum but
	// never beat it, and schedules whatever the reference schedules.
	NeverCheaper
	// PrunedWork: per layer, the reference's candidate count, evaluated
	// plus pruned accounting for every candidate, and no more exact
	// evaluations than the reference.
	PrunedWork
	// NeverWorse: the setting's space contains the reference's, so its
	// optimum costs no more.
	NeverWorse
)

// Variant is one entry of the matrix: compile Setting, compare it
// against Ref under Relation, and report divergences under checks
// prefixed by Name.
type Variant struct {
	Name     string
	Setting  Setting
	Ref      Setting
	Relation Relation
}

// PlanCheck is a named plug-in check on the plan one setting compiles
// (which carries its network, config and options); it is skipped when
// that setting fails to schedule. Check reports into r under checks
// prefixed by name.
type PlanCheck struct {
	Name  string
	On    Setting
	Check func(r *Report, name string, plan *sched.Plan) error
}

// Matrix is the declarative differential over the scheduler's settings.
type Matrix struct {
	Variants []Variant
	Checks   []PlanCheck
}

// workerLevels is the worker sweep: sequential, the smallest truly
// concurrent pool, and the full machine.
func workerLevels() []int {
	levels := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		levels = append(levels, p)
	}
	return levels
}

// DefaultMatrix is the matrix rana-verify -matrix and the tests run.
// Its references are the sequential exhaustive un-memoized compile on
// the default space and on the enlarged one; the cycle-walker check runs
// on the enlarged-space reference's plan.
func DefaultMatrix(tol Tolerances) Matrix {
	levels := workerLevels()
	top := levels[len(levels)-1]
	ref := Setting{Strategy: search.Exhaustive, Workers: 1}
	axesRef := ref
	axesRef.Axes = true
	// prod is what a server compiles: pruned, every worker, memo on.
	prod := Setting{Strategy: search.Pruned, Workers: top, Memo: true}

	var m Matrix
	add := func(group string, s, ref Setting, rel Relation) {
		m.Variants = append(m.Variants, newVariant(group, s, ref, rel))
	}
	// The layer pool and the memo are throughput knobs: the same bytes
	// at every worker count, memo on or off, exhaustive or pruned.
	for _, w := range levels {
		for _, st := range []search.Strategy{search.Exhaustive, search.Pruned} {
			for _, memo := range []bool{false, true} {
				if s := (Setting{Strategy: st, Workers: w, Memo: memo}); s != ref {
					add("parallel", s, ref, SameBytes)
				}
			}
		}
	}
	// The branch-and-bound streams the exhaustive candidate set, accounts
	// for every candidate and prices no more of them; the beam never wins.
	for _, w := range []int{1, top} {
		add("strategy", Setting{Strategy: search.Pruned, Workers: w}, ref, PrunedWork)
	}
	beam := prod
	beam.Strategy = search.Beam
	add("strategy", beam, ref, NeverCheaper)
	// The enlarged space: never worse than the default-only optimum,
	// pruned ≡ exhaustive on it (at full parallelism), and the beam never
	// beats it there.
	add("axes", axesRef, ref, NeverWorse)
	axes := prod
	axes.Axes = true
	add("axes", axes, axesRef, SameBytes)
	beam.Axes = true
	add("axes", beam, axesRef, NeverCheaper)
	// Spelled-out defaults are the empty spellings, byte for byte.
	spelled := prod
	spelled.Spelled = true
	add("spelling", spelled, ref, SameBytes)
	// One memo shared across refresh intervals answers with the bytes of
	// a cold compile: the pruned search, the beam and the natural-tiling
	// baseline, on both spaces.
	for _, axes := range []bool{false, true} {
		for _, cold := range []Setting{prod, beam, {Strategy: search.Pruned, Workers: top, Memo: true, Natural: true}} {
			cold.Axes = axes
			swept := cold
			swept.Parametric = true
			add("parametric", swept, cold, SameBytes)
		}
	}
	// The memo's interval envelopes change plans exactly where a cold
	// compile does: on both spaces, at the network's first plan change
	// and the nanosecond before it.
	for _, axes := range []bool{false, true} {
		for _, edge := range []int{1, -1} {
			cold := prod
			cold.Axes, cold.Edge = axes, edge
			swept := cold
			swept.Parametric = true
			add("envelope", swept, cold, SameBytes)
		}
	}

	m.Checks = []PlanCheck{walkerCheck(axesRef, tol)}
	return m
}

// newVariant names a variant after its group and setting.
func newVariant(group string, s, ref Setting, rel Relation) Variant {
	return Variant{Name: group + "/" + s.Name(), Setting: s, Ref: ref, Relation: rel}
}

// compiler is the seam every matrix compile goes through: the
// whole-network schedule and the per-layer exploration, each told which
// setting it serves.
type compiler struct {
	schedule func(s Setting, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error)
	explore  func(s Setting, l models.ConvLayer, cfg hw.Config, opts sched.Options) (search.Stats, error)
}

// direct is the production seam: sched's own entry points.
var direct = compiler{
	schedule: func(s Setting, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
		if s.Edge != 0 {
			opts.RefreshInterval = edgeInterval(net, cfg, opts)
			if s.Edge < 0 {
				opts.RefreshInterval--
			}
		}
		if s.Parametric {
			opts.Memo = sched.NewMemo(0)
			for _, iv := range []time.Duration{4 * opts.RefreshInterval, opts.RefreshInterval / 4} {
				sweep := opts
				sweep.RefreshInterval = iv
				// A sweep compile's failure shows again, with the frame's
				// error text, in the compile the variant compares.
				_, _ = sched.Schedule(net, cfg, sweep)
			}
		}
		return sched.Schedule(net, cfg, opts)
	},
	explore: func(_ Setting, l models.ConvLayer, cfg hw.Config, opts sched.Options) (search.Stats, error) {
		_, st, err := sched.ExploreLayer(l, cfg, opts)
		return st, err
	},
}

// edgeInterval returns the first interval above a quarter of opts' at
// which some layer of net changes its chosen cell (pattern, tiling,
// operating point, traversal, mapping). It bisects compiles on one memo
// built at that quarter, so each is answered from the frontiers, between
// the quarter and 64 times opts' interval: the interval it returns
// compiles to other cells than the one before it. With no change in that
// range, or no plan, it returns opts' own interval.
func edgeInterval(net models.Network, cfg hw.Config, opts sched.Options) time.Duration {
	o := opts
	o.Memo = sched.NewMemo(0)
	cells := func(t time.Duration) (string, bool) {
		o.RefreshInterval = t
		p, err := sched.Schedule(net, cfg, o)
		if err != nil {
			return "", false
		}
		var b strings.Builder
		for _, lp := range p.Layers {
			fmt.Fprintf(&b, "%v %v %s %s %s;", lp.Analysis.Pattern, lp.Analysis.Tiling, lp.Point, lp.Traversal, lp.Mapping)
		}
		return b.String(), true
	}
	lo, hi := opts.RefreshInterval/4, 64*opts.RefreshInterval
	if lo <= 0 {
		return opts.RefreshInterval
	}
	base, ok := cells(lo)
	if last, ok2 := cells(hi); !ok || !ok2 || last == base {
		return opts.RefreshInterval
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if c, _ := cells(mid); c == base {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Run compiles net under every setting the matrix names and reports
// every variant whose relation fails, plus the plug-in checks' findings.
// opts is the shared scheduling frame (patterns, refresh interval,
// controller, backend); the settings override the search strategy,
// parallelism, memo and the traversal and mapping axes.
func (m Matrix) Run(net models.Network, cfg hw.Config, opts sched.Options) (*Report, error) {
	return m.run(direct, net, cfg, opts)
}

func (m Matrix) run(c compiler, net models.Network, cfg hw.Config, opts sched.Options) (*Report, error) {
	r := &Report{Subject: net.Name + " matrix"}
	x := &matrixRun{
		r: r, c: c, net: net, cfg: cfg, opts: opts,
		plans: map[Setting]*compiled{},
		works: map[Setting][]layerWork{},
	}
	for _, v := range m.Variants {
		if err := x.check(r, v); err != nil {
			return nil, err
		}
	}
	for _, pc := range m.Checks {
		p, err := x.plan(pc.On)
		if err != nil {
			return nil, err
		}
		if p.err != nil {
			continue
		}
		if err := pc.Check(r, pc.Name, p.plan); err != nil {
			return nil, err
		}
	}
	r.note("%d variants over %d compiled settings", len(m.Variants), len(x.plans))
	return r, nil
}

// compiled is one setting's whole-network outcome.
type compiled struct {
	plan *sched.Plan
	wire string
	err  error
}

// layerWork is one setting's exploration of one layer.
type layerWork struct {
	stats search.Stats
	err   error
}

// matrixRun memoizes each setting's compile and per-layer work for one
// network, so a reference is compiled once for all its variants.
type matrixRun struct {
	r     *Report
	c     compiler
	net   models.Network
	cfg   hw.Config
	opts  sched.Options
	plans map[Setting]*compiled
	works map[Setting][]layerWork
}

func (x *matrixRun) plan(s Setting) (*compiled, error) {
	if p, ok := x.plans[s]; ok {
		return p, nil
	}
	p := &compiled{}
	p.plan, p.err = x.c.schedule(s, x.net, x.cfg, s.options(x.opts, x.cfg))
	if p.err == nil {
		wire, err := json.Marshal(sched.Encode(p.plan))
		if err != nil {
			return nil, fmt.Errorf("verify: encoding %s plan: %w", s.Name(), err)
		}
		p.wire = string(wire)
		// ranad's schedule bodies carry the plan as AppendPlanJSON
		// writes it; every compiled setting holds it to the reference.
		check, ref, enc := "wire-encoder/"+s.Name(), "json.Marshal(Encode)", "AppendPlanJSON"
		if served, err := sched.AppendPlanJSON(nil, p.plan); err != nil {
			x.r.diverge(check, ref, enc, "ok", err)
		} else if string(served) != p.wire {
			x.r.diverge(check, ref, enc, fmt.Sprintf("%.120s", p.wire), fmt.Sprintf("%.120s", served))
		}
	}
	x.plans[s] = p
	return p, nil
}

func (x *matrixRun) work(s Setting) []layerWork {
	if w, ok := x.works[s]; ok {
		return w
	}
	o := s.options(x.opts, x.cfg)
	w := make([]layerWork, len(x.net.Layers))
	for i, l := range x.net.Layers {
		w[i].stats, w[i].err = x.c.explore(s, l, x.cfg, o)
	}
	x.works[s] = w
	return w
}

// check applies one variant's relation.
func (x *matrixRun) check(r *Report, v Variant) error {
	refName, name := v.Ref.Name(), v.Setting.Name()
	if v.Relation == PrunedWork {
		x.checkWork(r, v, refName, name)
		return nil
	}
	ref, err := x.plan(v.Ref)
	if err != nil {
		return err
	}
	got, err := x.plan(v.Setting)
	if err != nil {
		return err
	}
	switch v.Relation {
	case SameBytes:
		switch {
		case (ref.err == nil) != (got.err == nil):
			r.diverge(v.Name+"/error", refName, name, errString(ref.err), errString(got.err))
		case ref.err != nil:
			if ref.err.Error() != got.err.Error() {
				r.diverge(v.Name+"/error-text", refName, name, ref.err, got.err)
			}
		case ref.wire != got.wire:
			r.diverge(v.Name+"/plan-bytes", refName, name,
				fmt.Sprintf("%.120s", ref.wire), fmt.Sprintf("%.120s", got.wire))
		}
	case NeverCheaper:
		switch {
		case ref.err != nil:
			// Nothing to beat.
		case got.err != nil:
			r.diverge(v.Name+"/beam-error", refName, name, "ok", got.err)
		case got.plan.Energy.Total() < ref.plan.Energy.Total():
			r.diverge(v.Name+"/beam-energy", refName, name,
				fmt.Sprintf(">= %g pJ", ref.plan.Energy.Total()), got.plan.Energy.Total())
		}
	case NeverWorse:
		switch {
		case ref.err != nil:
			// No default-only optimum to lose to.
		case got.err != nil:
			r.diverge(v.Name+"/never-worse", refName, name,
				fmt.Sprintf("<= %g pJ", ref.plan.Energy.Total()), got.err)
		case got.plan.Energy.Total() > ref.plan.Energy.Total():
			r.diverge(v.Name+"/never-worse", refName, name,
				fmt.Sprintf("<= %g pJ", ref.plan.Energy.Total()), got.plan.Energy.Total())
		default:
			r.note("%s saved %.4g pJ", v.Name, ref.plan.Energy.Total()-got.plan.Energy.Total())
		}
	default:
		return fmt.Errorf("verify: variant %s: unknown relation %d", v.Name, v.Relation)
	}
	return nil
}

// checkWork applies the PrunedWork relation, layer by layer.
func (x *matrixRun) checkWork(r *Report, v Variant, refName, name string) {
	want, got := x.work(v.Ref), x.work(v.Setting)
	evaluated, exhaustive := 0, 0
	for i, l := range x.net.Layers {
		a, b := want[i], got[i]
		if (a.err == nil) != (b.err == nil) {
			r.diverge(v.Name+"/layer-error/"+l.Name, refName, name, errString(a.err), errString(b.err))
			continue
		}
		if a.err != nil {
			continue
		}
		evaluated += b.stats.Evaluated
		exhaustive += a.stats.Evaluated
		if a.stats.Candidates != b.stats.Candidates {
			r.diverge(v.Name+"/candidates/"+l.Name, refName, name, a.stats.Candidates, b.stats.Candidates)
		}
		if b.stats.Evaluated+b.stats.Pruned != b.stats.Candidates {
			r.diverge(v.Name+"/accounting/"+l.Name, "candidates", "evaluated+pruned",
				b.stats.Candidates, b.stats.Evaluated+b.stats.Pruned)
		}
		if b.stats.Evaluated > a.stats.Evaluated {
			r.diverge(v.Name+"/work/"+l.Name, refName, name, a.stats.Evaluated, b.stats.Evaluated)
		}
	}
	r.note("%s evaluated %d of %d", v.Name, evaluated, exhaustive)
}

// walkerCheck is the cycle-walker plug-in: every layer of the plan the
// setting compiles must meet its retention deadlines in
// sim.WalkTraversal. No empirical lifetime may exceed the analytical one
// the refresh flags were derived from; under a refreshing controller,
// every layer's operating point must exist on the backend and no region
// the plan leaves unrefreshed may outlive the guarded interval at that
// point.
func walkerCheck(on Setting, tol Tolerances) PlanCheck {
	return PlanCheck{Name: "walker", On: on, Check: func(r *Report, name string, plan *sched.Plan) error {
		net, cfg, opts := plan.Network, plan.Config, plan.Options
		bk, _, err := sched.ResolveBackend(cfg, opts)
		if err != nil {
			return fmt.Errorf("verify: resolving backend: %w", err)
		}
		refreshing := opts.Controller != nil && bk.Refreshes()
		reordered := 0
		for i, lp := range plan.Layers {
			l := net.Layers[i]
			a := lp.Analysis
			if lp.Traversal != "" || lp.Mapping != "" {
				reordered++
			}
			tr := sim.WalkTraversal(l, a.Pattern, a.Tiling, cfg, a.Traversal)
			regions := []struct {
				name                  string
				analytical, empirical time.Duration
				need                  bool
			}{
				{"inputs", a.Lifetimes.Input, tr.Lifetimes.Input, lp.Needs.Inputs},
				{"outputs", a.Lifetimes.Output, tr.Lifetimes.Output, lp.Needs.Outputs},
				{"weights", a.Lifetimes.Weight, tr.Lifetimes.Weight, lp.Needs.Weights},
			}
			for _, c := range regions {
				if c.empirical > c.analytical+tol.Duration {
					r.diverge(name+"/lifetime/"+l.Name+"/"+c.name, "analysis", "walker", c.analytical, c.empirical)
				}
			}
			if !refreshing {
				continue
			}
			pt, ok := mem.PointByName(bk, lp.Point)
			if !ok {
				r.diverge(name+"/point/"+l.Name, "backend", "plan", bk.Name(), lp.Point)
				continue
			}
			interval := opts.RefreshInterval
			if pt.RetentionScale != 1 {
				interval = time.Duration(float64(interval) * pt.RetentionScale)
			}
			guarded := time.Duration(float64(interval) * opts.Guard())
			for _, c := range regions {
				if !c.need && c.empirical >= guarded {
					r.diverge(name+"/deadline/"+l.Name+"/"+c.name, "guarded interval", "walker lifetime",
						fmt.Sprintf("< %v", guarded), c.empirical)
				}
			}
		}
		r.note("%s: %d layers reordered", name, reordered)
		return nil
	}}
}
