// Command rana-verify runs the cross-model conformance harness: for every
// benchmark network it checks that the analytical model, the cycle walker
// and (on demand) the word-accurate functional simulator agree, and that
// every compiled schedule satisfies the runtime invariants. Every
// word-accurate check (-functional, and the spot checks of -backends and
// -faults) runs the one functional oracle, verify.CompareFunctional.
//
// Usage:
//
//	rana-verify                          # sweep the whole zoo under OD and WD
//	rana-verify -model AlexNet -v        # one network, per-layer detail
//	rana-verify -patterns ID,OD,WD       # include the input-dominant pattern
//	rana-verify -random 500 -seed 7      # randomized differential cases
//	rana-verify -functional 5            # word-accurate cross-checks through eDRAM
//	rana-verify -matrix 50               # differential matrix: zoo + 50 random networks
//	rana-verify -backends                # memory-backend differential sweep + word-accurate check of every point
//	rana-verify -faults                  # fault-injection/error-budget differential sweep + fault-masked word-accurate check of every point
//	rana-verify -nodes URL,URL -reference URL  # fleet nodes ≡ single-node bytes
//
// The first divergence is reported with a minimized reproducer and the
// command exits 1; usage errors exit 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/training"
	"rana/internal/verify"
	"rana/internal/verify/gen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rana-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "all", "benchmark network to sweep, or \"all\"")
	patterns := fs.String("patterns", "OD,WD", "comma-separated computation patterns to cross-check")
	random := fs.Int("random", 0, "number of additional randomized differential cases")
	seed := fs.Uint64("seed", 1, "seed for the randomized cases")
	functional := fs.Int("functional", 0, "number of word-accurate functional cross-checks")
	matrix := fs.Int("matrix", -1, "differential matrix: every strategy, worker-count, memo, axes, spelling and memo-envelope variant against its shared reference, on the selected networks plus this many random networks (-1 skips it)")
	backends := fs.Bool("backends", false, "backend differential: sweep the memory-backend registry (invariants and bounds at every admissible operating point, functional spot checks)")
	faults := fs.Bool("faults", false, "fault differential: empirically validate error-budget admission under backend-derived bit flips (per-layer budgets, seeded mask stability, pretrained oracle, negative over-budget check, faulty-storage spot checks)")
	nodesList := fs.String("nodes", "", "cross-node conformance: comma-separated fleet node URLs; every node must answer the zoo byte-identically to -reference (runs only this sweep)")
	refURL := fs.String("reference", "", "single-node ranad URL the -nodes sweep compares against")
	verbose := fs.Bool("v", false, "report every case, not just failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	kinds, err := parsePatterns(*patterns)
	if err != nil {
		fmt.Fprintln(stderr, "rana-verify:", err)
		return 2
	}
	nets, err := selectNetworks(*model)
	if err != nil {
		fmt.Fprintln(stderr, "rana-verify:", err)
		return 2
	}

	t := &tally{stdout: stdout, stderr: stderr, verbose: *verbose}
	// The nodes sweep talks to live ranad processes, not in-process
	// models; it runs alone so a fleet check never silently depends on
	// local model state.
	if *nodesList != "" || *refURL != "" {
		if *nodesList == "" || *refURL == "" {
			fmt.Fprintln(stderr, "rana-verify: -nodes and -reference must be given together")
			return 2
		}
		return sweepNodes(t, nets, *refURL, strings.Split(*nodesList, ","))
	}

	tol := verify.DefaultTolerances()
	cfg := hw.TestAcceleratorEDRAM()
	opts := sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}

	for _, net := range nets {
		for _, l := range net.Layers {
			for _, k := range kinds {
				ti := sched.NaturalTiling(l, cfg)
				r, label := verify.CompareLayer(l, k, ti, cfg, tol), net.Name+"/"+l.Name
				if r.OK() {
					a := pattern.MustAnalyze(l, k, ti, cfg)
					rr, err := verify.CompareRefresh(a, cfg, opts, tol)
					if err != nil {
						fmt.Fprintln(stderr, "rana-verify:", err)
						return 1
					}
					r, label = rr, label+" refresh"
				}
				if t.check(r, nil, "", label) {
					t.pass("%s/%s %v", net.Name, l.Name, k)
				}
			}
		}

		// The compiled schedule must satisfy every structural invariant.
		plan, err := sched.Schedule(net, cfg, opts)
		if err != nil {
			t.fail("%s: schedule: %v", net.Name, err)
			continue
		}
		if vs := verify.CheckPlan(plan, tol); len(vs) != 0 {
			lines := make([]string, len(vs))
			for i, v := range vs {
				lines[i] = v.String()
			}
			t.fail("%s: %d invariant violations\n%s", net.Name, len(vs), indent(strings.Join(lines, "\n")))
		} else {
			t.pass("%s plan invariants (%d layers)", net.Name, len(plan.Layers))
		}
	}

	if *random > 0 {
		sweepRandom(t, *random, *seed, tol)
	}
	if *functional > 0 {
		sweepFunctional(t, *functional, *seed, tol)
	}
	if *matrix >= 0 {
		sweepMatrix(t, nets, cfg, opts, *matrix, *seed, tol)
	}
	if *backends {
		sweepBackends(t, nets, cfg, opts, *seed, tol)
	}
	if *faults {
		sweepFaults(t, nets, cfg, opts, *seed, tol)
	}

	if t.failures > 0 {
		fmt.Fprintf(stdout, "rana-verify: %d of %d cases FAILED\n", t.failures, t.cases)
		return 1
	}
	fmt.Fprintf(stdout, "rana-verify: %d cases ok (models agree, invariants hold)\n", t.cases)
	return 0
}

// tally is the bookkeeping every sweep shares: it counts cases and
// failures and prints each case's outcome in one format.
type tally struct {
	stdout, stderr  io.Writer
	verbose         bool
	cases, failures int
}

// pass counts a passing case and, when verbose, prints "ok   " and the
// line; an empty format prints nothing (sweeps that summarize).
func (t *tally) pass(format string, args ...any) {
	t.cases++
	if t.verbose && format != "" {
		fmt.Fprintf(t.stdout, "ok   "+format+"\n", args...)
	}
}

// fail counts a failing case and prints "FAIL " and the line.
func (t *tally) fail(format string, args ...any) {
	t.cases++
	t.failures++
	fmt.Fprintf(t.stdout, "FAIL "+format+"\n", args...)
}

// check counts the case that r, or the error that kept it from running,
// fails: err prints to stderr after prefix, a diverging report prints
// "FAIL <label>" with the report indented below it. It reports whether
// the case passed, which the caller then counts with pass.
func (t *tally) check(r *verify.Report, err error, prefix, label string) bool {
	switch {
	case err != nil:
		fmt.Fprintf(t.stderr, "rana-verify: %s%v\n", prefix, err)
	case !r.OK():
		fmt.Fprintf(t.stdout, "FAIL %s\n%s\n", label, indent(r.String()))
	default:
		return true
	}
	t.cases++
	t.failures++
	return false
}

// summary prints a sweep's verbose "ok   " line.
func (t *tally) summary(format string, args ...any) {
	if t.verbose {
		fmt.Fprintf(t.stdout, "ok   "+format+"\n", args...)
	}
}

// sweepRandom cross-checks count generator-driven cases and, on the first
// divergence, prints a minimized reproducer.
func sweepRandom(t *tally, count int, seed uint64, tol verify.Tolerances) {
	g := gen.New(seed)
	fails := func(c gen.Case) bool {
		if !verify.CompareLayer(c.Layer, c.Pattern, c.Tiling, c.Config, tol).OK() {
			return true
		}
		if c.Options.Controller == nil {
			return false
		}
		a := pattern.MustAnalyze(c.Layer, c.Pattern, c.Tiling, c.Config)
		rr, err := verify.CompareRefresh(a, c.Config, c.Options, tol)
		return err == nil && !rr.OK()
	}
	for i := 0; i < count; i++ {
		c := g.Case()
		if !fails(c) {
			t.pass("")
			continue
		}
		m := verify.Minimize(c, fails)
		r := verify.CompareLayer(m.Layer, m.Pattern, m.Tiling, m.Config, tol)
		t.fail("random case %d (seed %d); minimized repro:\n  layer  %+v\n  tiling %+v\n  pattern %v on %s\n%s",
			i, seed, m.Layer, m.Tiling, m.Pattern, m.Config.Name, indent(r.String()))
		return
	}
	t.summary("%d randomized cases", count)
}

// sweepFunctional runs the functional oracle on tiny layers through the
// eDRAM buffer at the conventional refresh interval, stopping at the
// first failure.
func sweepFunctional(t *tally, count int, seed uint64, tol verify.Tolerances) {
	g := gen.New(seed)
	cfg := hw.TestAcceleratorEDRAM()
	for i := 0; i < count; i++ {
		r, err := verify.CompareFunctional("edram", g.TinyLayer(), cfg, 0, seed+uint64(i), tol)
		if !t.check(r, err, "functional: ", fmt.Sprintf("functional case %d (seed %d)", i, seed)) {
			return
		}
		t.pass("")
	}
	t.summary("%d functional cases", count)
}

// sweepMatrix runs the differential matrix on every selected network
// and on count small random networks over random accelerators.
func sweepMatrix(t *tally, nets []models.Network, cfg hw.Config, opts sched.Options, count int, seed uint64, tol verify.Tolerances) {
	m := verify.DefaultMatrix(tol)
	check := func(net models.Network, c hw.Config) {
		r, err := m.Run(net, c, opts)
		if t.check(r, err, "", net.Name+" matrix on "+c.Name) {
			t.pass("%s", r)
		}
	}
	for _, net := range nets {
		check(net, cfg)
	}
	g := gen.New(seed)
	for i := 0; i < count; i++ {
		c := g.Config()
		net := models.Network{Name: fmt.Sprintf("random-%d", i)}
		for j := 0; j < 1+i%3; j++ {
			net.Layers = append(net.Layers, g.TinyLayer())
		}
		check(net, c)
	}
}

// sweepBackends runs the memory-backend differential oracle on every
// selected network — the whole registry's admissible operating points
// pass the invariant and bound checks — plus the functional oracle on
// every buffer backend point's failure injector on a tiny layer.
func sweepBackends(t *tally, nets []models.Network, cfg hw.Config, opts sched.Options, seed uint64, tol verify.Tolerances) {
	for _, net := range nets {
		r, err := verify.CompareBackends(net, cfg, opts, tol)
		if t.check(r, err, "", net.Name+" backends") {
			t.pass("%s", r)
		}
	}
	spotChecks(t, "functional", "backend functional: ", cfg, 0, seed, tol)
}

// sweepFaults runs the fault-injection differential oracle on every
// selected network: the per-layer error budgets derived from the
// calibrated resilience curves must admit exactly the operating points
// whose bit-error rates clear them, seeded fault-mask derivation must
// be byte-stable across repeated draws, the pretrained empirical oracle
// must hold its accuracy constraint at every admitted rate, and the
// over-budget corner must be refused. The functional oracle then drives
// every buffer backend's operating points through a faulty storage
// overlay on a tiny layer. One oracle (one pretraining run) is shared
// across the zoo.
func sweepFaults(t *tally, nets []models.Network, cfg hw.Config, opts sched.Options, seed uint64, tol verify.Tolerances) {
	oracle := verify.NewFaultOracle(training.Config{
		Epochs: 3, LR: 0.02, Momentum: 0.9, Format: fixed.Q88, Seed: 1,
	}, 160)
	for _, net := range nets {
		r, err := verify.CompareFaults(net, cfg, opts, oracle, 0, seed)
		if t.check(r, err, "faults: ", net.Name+" faults") {
			t.pass("%s", r)
		}
	}
	// The spot-check rate is demonstrative, far above any admissible
	// bit-error rate: the point is to land flips and watch the simulator
	// count them, not to model an admitted corner.
	const spotRate = 0.05
	spotChecks(t, "fault functional", "fault functional: ", cfg, spotRate, seed, tol)
}

// spotChecks runs the functional oracle on every buffer backend point
// on one tiny layer, at the given fault rate.
func spotChecks(t *tally, what, prefix string, cfg hw.Config, faultRate float64, seed uint64, tol verify.Tolerances) {
	l := gen.New(seed).TinyLayer()
	for _, bk := range mem.Buffers() {
		for _, p := range bk.Points() {
			spec := bk.Name() + "@" + p.Name
			r, err := verify.CompareFunctional(spec, l, cfg, faultRate, seed, tol)
			if t.check(r, err, prefix, what+" "+spec) {
				t.pass("%s %s", what, spec)
			}
		}
	}
}

// sweepNodes runs the cross-node conformance oracle against live ranad
// processes: every fleet node must answer each zoo schedule, compile and
// evaluate request byte-identically to the reference node.
func sweepNodes(t *tally, nets []models.Network, reference string, nodes []string) int {
	urls := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n = strings.TrimSpace(n); n != "" {
			urls = append(urls, n)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(t.stderr, "rana-verify: -nodes lists no URLs")
		return 2
	}
	ctx := context.Background()
	for _, net := range nets {
		model := []byte(fmt.Sprintf(`{"model": %q}`, net.Name))
		for _, rq := range []struct {
			path string
			body []byte
		}{
			{"/v1/schedule", model},
			{"/v1/compile", model},
			{"/v1/evaluate", []byte(fmt.Sprintf(`{"design": "RANA*(E-5)", "model": %q}`, net.Name))},
		} {
			r, err := verify.CompareNodes(ctx, nil, reference, urls, rq.path, rq.body)
			if err != nil {
				fmt.Fprintln(t.stderr, "rana-verify:", err)
				return 1
			}
			if t.check(r, nil, "", net.Name+" "+rq.path) {
				t.pass("%s", r)
			}
		}
	}
	if t.failures > 0 {
		fmt.Fprintf(t.stdout, "rana-verify: %d of %d node cases FAILED\n", t.failures, t.cases)
		return 1
	}
	fmt.Fprintf(t.stdout, "rana-verify: %d node cases ok (%d nodes byte-identical to %s)\n", t.cases, len(urls), reference)
	return 0
}

// parsePatterns maps a comma-separated list onto pattern kinds.
func parsePatterns(s string) ([]pattern.Kind, error) {
	var kinds []pattern.Kind
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(strings.ToUpper(part))
		if name == "" {
			continue
		}
		k, ok := pattern.ParseKind(name)
		if !ok {
			return nil, fmt.Errorf("unknown pattern %q", part)
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no patterns in %q", s)
	}
	return kinds, nil
}

// selectNetworks resolves the -model flag against the benchmark zoo.
func selectNetworks(name string) ([]models.Network, error) {
	if name == "all" {
		return models.Benchmarks(), nil
	}
	n, ok := models.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return []models.Network{n}, nil
}

// indent prefixes every line for nested report output.
func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
