// Command rana-verify runs the cross-model conformance harness: for every
// benchmark network it checks that the analytical model, the cycle walker
// and (on demand) the word-accurate functional simulator agree, and that
// every compiled schedule satisfies the runtime invariants.
//
// Usage:
//
//	rana-verify                          # sweep the whole zoo under OD and WD
//	rana-verify -model AlexNet -v        # one network, per-layer detail
//	rana-verify -patterns ID,OD,WD       # include the input-dominant pattern
//	rana-verify -random 500 -seed 7      # randomized differential cases
//	rana-verify -functional 5            # word-accurate cross-checks
//	rana-verify -matrix 50               # differential matrix: zoo + 50 random networks
//	rana-verify -backends                # memory-backend differential sweep
//	rana-verify -faults                  # fault-injection/error-budget differential sweep
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
	matrix := fs.Int("matrix", -1, "differential matrix: every strategy, worker-count, memo, incremental-pricing, axes and spelling variant against its shared reference, on the selected networks plus this many random networks (-1 skips it)")
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

	// The nodes sweep talks to live ranad processes, not in-process
	// models; it runs alone so a fleet check never silently depends on
	// local model state.
	if *nodesList != "" || *refURL != "" {
		if *nodesList == "" || *refURL == "" {
			fmt.Fprintln(stderr, "rana-verify: -nodes and -reference must be given together")
			return 2
		}
		return sweepNodes(stdout, stderr, nets, *refURL, strings.Split(*nodesList, ","), *verbose)
	}

	tol := verify.DefaultTolerances()
	cfg := hw.TestAcceleratorEDRAM()
	opts := sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}

	failures := 0
	cases := 0
	for _, net := range nets {
		for _, l := range net.Layers {
			for _, k := range kinds {
				cases++
				ti := sched.NaturalTiling(l, cfg)
				r := verify.CompareLayer(l, k, ti, cfg, tol)
				if !r.OK() {
					failures++
					fmt.Fprintf(stdout, "FAIL %s/%s\n%s\n", net.Name, l.Name, indent(r.String()))
					continue
				}
				a := pattern.MustAnalyze(l, k, ti, cfg)
				rr, err := verify.CompareRefresh(a, cfg, opts, tol)
				if err != nil {
					fmt.Fprintln(stderr, "rana-verify:", err)
					return 1
				}
				if !rr.OK() {
					failures++
					fmt.Fprintf(stdout, "FAIL %s/%s refresh\n%s\n", net.Name, l.Name, indent(rr.String()))
					continue
				}
				if *verbose {
					fmt.Fprintf(stdout, "ok   %s/%s %v\n", net.Name, l.Name, k)
				}
			}
		}

		// The compiled schedule must satisfy every structural invariant.
		cases++
		plan, err := sched.Schedule(net, cfg, opts)
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s: schedule: %v\n", net.Name, err)
			failures++
			continue
		}
		if vs := verify.CheckPlan(plan, tol); len(vs) != 0 {
			failures++
			fmt.Fprintf(stdout, "FAIL %s: %d invariant violations\n", net.Name, len(vs))
			for _, v := range vs {
				fmt.Fprintf(stdout, "  %s\n", v)
			}
		} else if *verbose {
			fmt.Fprintf(stdout, "ok   %s plan invariants (%d layers)\n", net.Name, len(plan.Layers))
		}
	}

	if *random > 0 {
		n, f := sweepRandom(stdout, *random, *seed, tol, *verbose)
		cases += n
		failures += f
	}
	if *functional > 0 {
		n, f := sweepFunctional(stdout, stderr, *functional, *seed, tol, *verbose)
		cases += n
		failures += f
	}
	if *matrix >= 0 {
		n, f := sweepMatrix(stdout, stderr, nets, cfg, opts, *matrix, *seed, tol, *verbose)
		cases += n
		failures += f
	}
	if *backends {
		n, f := sweepBackends(stdout, stderr, nets, cfg, opts, *seed, tol, *verbose)
		cases += n
		failures += f
	}
	if *faults {
		n, f := sweepFaults(stdout, stderr, nets, cfg, opts, *seed, *verbose)
		cases += n
		failures += f
	}

	if failures > 0 {
		fmt.Fprintf(stdout, "rana-verify: %d of %d cases FAILED\n", failures, cases)
		return 1
	}
	fmt.Fprintf(stdout, "rana-verify: %d cases ok (models agree, invariants hold)\n", cases)
	return 0
}

// sweepRandom cross-checks count generator-driven cases and, on the first
// divergence, prints a minimized reproducer.
func sweepRandom(stdout io.Writer, count int, seed uint64, tol verify.Tolerances, verbose bool) (cases, failures int) {
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
		cases++
		if !fails(c) {
			continue
		}
		failures++
		m := verify.Minimize(c, fails)
		r := verify.CompareLayer(m.Layer, m.Pattern, m.Tiling, m.Config, tol)
		fmt.Fprintf(stdout, "FAIL random case %d (seed %d); minimized repro:\n", i, seed)
		fmt.Fprintf(stdout, "  layer  %+v\n  tiling %+v\n  pattern %v on %s\n", m.Layer, m.Tiling, m.Pattern, m.Config.Name)
		fmt.Fprintf(stdout, "%s\n", indent(r.String()))
		return cases, failures
	}
	if verbose {
		fmt.Fprintf(stdout, "ok   %d randomized cases\n", count)
	}
	return cases, failures
}

// sweepFunctional cross-checks the word-accurate simulator on tiny layers
// at the conventional refresh interval.
func sweepFunctional(stdout, stderr io.Writer, count int, seed uint64, tol verify.Tolerances, verbose bool) (cases, failures int) {
	g := gen.New(seed)
	cfg := hw.TestAcceleratorEDRAM()
	for i := 0; i < count; i++ {
		l := g.TinyLayer()
		cases++
		r, err := verify.CompareFunctional(l, cfg, 45*time.Microsecond, seed+uint64(i), tol)
		if err != nil {
			fmt.Fprintln(stderr, "rana-verify: functional:", err)
			failures++
			return cases, failures
		}
		if !r.OK() {
			failures++
			fmt.Fprintf(stdout, "FAIL functional case %d (seed %d)\n%s\n", i, seed, indent(r.String()))
			return cases, failures
		}
	}
	if verbose {
		fmt.Fprintf(stdout, "ok   %d functional cases\n", count)
	}
	return cases, failures
}

// sweepMatrix runs the differential matrix on every selected network
// and on count small random networks over random accelerators.
func sweepMatrix(stdout, stderr io.Writer, nets []models.Network, cfg hw.Config, opts sched.Options, count int, seed uint64, tol verify.Tolerances, verbose bool) (cases, failures int) {
	m := verify.DefaultMatrix(tol)
	check := func(net models.Network, c hw.Config) {
		cases++
		r, err := m.Run(net, c, opts)
		if err != nil {
			fmt.Fprintln(stderr, "rana-verify:", err)
			failures++
			return
		}
		if !r.OK() {
			failures++
			fmt.Fprintf(stdout, "FAIL %s on %s\n%s\n", r.Subject, c.Name, indent(r.String()))
			return
		}
		if verbose {
			fmt.Fprintf(stdout, "ok   %s\n", r)
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
	return cases, failures
}

// sweepBackends runs the memory-backend differential oracle on every
// selected network — the whole registry's admissible operating points
// pass the invariant and bound checks — plus a word-accurate functional
// spot check of every buffer backend's failure injector on a tiny layer.
func sweepBackends(stdout, stderr io.Writer, nets []models.Network, cfg hw.Config, opts sched.Options, seed uint64, tol verify.Tolerances, verbose bool) (cases, failures int) {
	for _, net := range nets {
		cases++
		r, err := verify.CompareBackends(net, cfg, opts, tol)
		if err != nil {
			fmt.Fprintln(stderr, "rana-verify:", err)
			failures++
			continue
		}
		if !r.OK() {
			failures++
			fmt.Fprintf(stdout, "FAIL %s backends\n%s\n", net.Name, indent(r.String()))
			continue
		}
		if verbose {
			fmt.Fprintf(stdout, "ok   %s\n", r)
		}
	}
	g := gen.New(seed)
	l := g.TinyLayer()
	for _, bk := range mem.Buffers() {
		for _, p := range bk.Points() {
			spec := bk.Name() + "@" + p.Name
			cases++
			r, err := verify.CompareBackendFunctional(spec, l, cfg, seed, tol)
			if err != nil {
				fmt.Fprintln(stderr, "rana-verify: backend functional:", err)
				failures++
				continue
			}
			if !r.OK() {
				failures++
				fmt.Fprintf(stdout, "FAIL functional %s\n%s\n", spec, indent(r.String()))
				continue
			}
			if verbose {
				fmt.Fprintf(stdout, "ok   functional %s\n", spec)
			}
		}
	}
	return cases, failures
}

// sweepFaults runs the fault-injection differential oracle on every
// selected network: the per-layer error budgets derived from the
// calibrated resilience curves must admit exactly the operating points
// whose bit-error rates clear them, seeded fault-mask derivation must
// be byte-stable across repeated draws, the pretrained empirical oracle
// must hold its accuracy constraint at every admitted rate, and the
// over-budget corner must be refused. A word-accurate spot check then
// drives every buffer backend's operating points through a faulty
// storage overlay on a tiny layer. One oracle (one pretraining run) is
// shared across the zoo.
func sweepFaults(stdout, stderr io.Writer, nets []models.Network, cfg hw.Config, opts sched.Options, seed uint64, verbose bool) (cases, failures int) {
	oracle := verify.NewFaultOracle(training.Config{
		Epochs: 3, LR: 0.02, Momentum: 0.9, Format: fixed.Q88, Seed: 1,
	}, 160)
	for _, net := range nets {
		cases++
		r, err := verify.CompareFaults(net, cfg, opts, oracle, 0, seed)
		if err != nil {
			fmt.Fprintln(stderr, "rana-verify: faults:", err)
			failures++
			continue
		}
		if !r.OK() {
			failures++
			fmt.Fprintf(stdout, "FAIL %s faults\n%s\n", net.Name, indent(r.String()))
			continue
		}
		if verbose {
			fmt.Fprintf(stdout, "ok   %s\n", r)
		}
	}
	// The spot-check rate is demonstrative, far above any admissible
	// bit-error rate: the point is to land flips and watch the simulator
	// count them, not to model an admitted corner.
	const spotRate = 0.05
	g := gen.New(seed)
	l := g.TinyLayer()
	for _, bk := range mem.Buffers() {
		for _, p := range bk.Points() {
			spec := bk.Name() + "@" + p.Name
			cases++
			r, err := verify.CompareFaultFunctional(spec, l, cfg, spotRate, seed)
			if err != nil {
				fmt.Fprintln(stderr, "rana-verify: fault functional:", err)
				failures++
				continue
			}
			if !r.OK() {
				failures++
				fmt.Fprintf(stdout, "FAIL fault functional %s\n%s\n", spec, indent(r.String()))
				continue
			}
			if verbose {
				fmt.Fprintf(stdout, "ok   fault functional %s\n", spec)
			}
		}
	}
	return cases, failures
}

// sweepNodes runs the cross-node conformance oracle against live ranad
// processes: every fleet node must answer each zoo schedule, compile and
// evaluate request byte-identically to the reference node.
func sweepNodes(stdout, stderr io.Writer, nets []models.Network, reference string, nodes []string, verbose bool) int {
	urls := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n = strings.TrimSpace(n); n != "" {
			urls = append(urls, n)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "rana-verify: -nodes lists no URLs")
		return 2
	}
	ctx := context.Background()
	cases, failures := 0, 0
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
			cases++
			r, err := verify.CompareNodes(ctx, nil, reference, urls, rq.path, rq.body)
			if err != nil {
				fmt.Fprintln(stderr, "rana-verify:", err)
				return 1
			}
			if !r.OK() {
				failures++
				fmt.Fprintf(stdout, "FAIL %s %s\n%s\n", net.Name, rq.path, indent(r.String()))
				continue
			}
			if verbose {
				fmt.Fprintf(stdout, "ok   %s\n", r)
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "rana-verify: %d of %d node cases FAILED\n", failures, cases)
		return 1
	}
	fmt.Fprintf(stdout, "rana-verify: %d node cases ok (%d nodes byte-identical to %s)\n", cases, len(urls), reference)
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
