// Command rana-bench records the scheduler performance trajectory: it
// compiles the benchmark zoo twice per model — the sequential
// un-memoized baseline against the optimized parallel+memoized default —
// and writes a BENCH_sched.json snapshot (ns/op, allocs/op, candidates
// evaluated, memo hit rate, speedup) so scheduler performance is
// comparable PR over PR.
//
// Usage:
//
//	rana-bench                         # write BENCH_sched.json
//	rana-bench -iters 5 -o bench.json  # more samples, custom path
//	rana-bench -models AlexNet,ResNet  # subset of the zoo
//	rana-bench -backends approx-dram,reram@fast-write  # backend cells
//	rana-bench -o /tmp/b.json -regress BENCH_sched.json -axes=false
//	                                   # CI regression gate: hard-fail on
//	                                   # allocs/op growth and, between two
//	                                   # GOMAXPROCS=1 snapshots, on any
//	                                   # change in candidates evaluated or
//	                                   # descending-sweep allocs/op; warn
//	                                   # on ns/op
//
// Each snapshot entry is keyed by (network, strategy, backend): the
// default-adapter cell is always measured so trajectories stay
// comparable PR over PR, and -backends adds extra cells per model.
//
// Beyond compile throughput the snapshot carries three more sections: a
// "warm" run per cell (the same compile against a shared cross-compile
// memo, the fleet steady state), a "sweep" per model (one shared memo
// across eight refresh intervals, descending then ascending: the
// retention-parametric memo rebuilding each shape once, then answering
// intervals it never compiled) and an "axes" section pricing the
// traversal/mapping search axes at both retention design points (the RTC
// win lives at the conventional 45µs interval, not RANA's extended 734µs
// one). Request latency through ranad is measured end to end by
// perfbench, which keeps cold and warm traffic apart.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Run is one measured configuration of one model. Strategy labels the
// scheduling strategy the sample ran under, so a flattened snapshot
// stays keyed by (network, strategy, backend) without relying on the
// enclosing field name.
type Run struct {
	Strategy    string  `json:"strategy"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	Evaluated   int     `json:"candidates_evaluated"`
	MemoHits    int     `json:"memo_hits"`
	MemoMisses  int     `json:"memo_misses"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	Workers     int     `json:"workers"`
}

// NetBench is one (network, strategy, backend) cell: the model's
// baseline/optimized strategy pair measured through one memory backend.
// Backend is the "-backend" spec verbatim; empty means the platform's
// default technology adapter, keeping legacy snapshots comparable.
type NetBench struct {
	Model     string `json:"model"`
	Backend   string `json:"backend,omitempty"`
	Layers    int    `json:"layers"`
	Baseline  Run    `json:"baseline"`
	Optimized Run    `json:"optimized"`
	// Warm repeats the optimized compile against a shared cross-compile
	// memo primed by a prior run — the fleet steady state, where a
	// GoogLeNet whose cold intra-compile hit rate is ~14% (mostly
	// distinct layer shapes) goes to ~100% because the shapes were
	// already explored by the previous compile.
	Warm     Run     `json:"warm"`
	SpeedupX float64 `json:"speedup_x"`
}

// AxesBench is one (network, retention scenario) cell of the
// traversal/mapping axis sweep: the default-axes pruned optimum priced
// against the axes-enabled one under the same refresh interval. SavedPJ
// is the energy the enlarged space recovered; Winners lists the layers
// that left the default cell and what they moved to.
type AxesBench struct {
	Model             string   `json:"model"`
	Scenario          string   `json:"scenario"`
	RefreshIntervalUS float64  `json:"refresh_interval_us"`
	BaselinePJ        float64  `json:"baseline_pj"`
	AxesPJ            float64  `json:"axes_pj"`
	SavedPJ           float64  `json:"saved_pj"`
	SavedPct          float64  `json:"saved_pct"`
	Reordered         int      `json:"reordered_layers"`
	Winners           []string `json:"winners,omitempty"`
}

// SweepPass is one pass of a sweep: per-compile wall time (the pass's
// mean, fastest iteration kept) and allocations, and the shared memo's
// hits and rebuilds during the pass.
type SweepPass struct {
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	MemoHits    uint64 `json:"memo_hits"`
	Rebuilds    uint64 `json:"rebuilds"`
}

// SweepBench is one model compiled on one shared memo across refresh
// intervals: descending, where the second interval lies below the
// frontiers the first built and each shape rebuilds once, down to the
// conventional 45 µs, so the rest hit, then ascending, where those
// frontiers answer every layer. The ascending pass is the warm path and
// must not allocate. Space names the search space: empty for the
// default one, "rtc-all" for the RTC traversal ladder with every
// mapping policy.
type SweepBench struct {
	Model       string    `json:"model"`
	Space       string    `json:"space,omitempty"`
	IntervalsUS []float64 `json:"intervals_us"`
	Descending  SweepPass `json:"descending"`
	Ascending   SweepPass `json:"ascending"`
}

// Snapshot is the BENCH_sched.json document.
type Snapshot struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Iters       int          `json:"iters"`
	Networks    []NetBench   `json:"networks"`
	Sweeps      []SweepBench `json:"sweeps,omitempty"`
	Axes        []AxesBench  `json:"axes,omitempty"`
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rana-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "BENCH_sched.json", "output path for the benchmark snapshot")
	iters := fs.Int("iters", 3, "timed compile iterations per configuration (the minimum is kept)")
	modelsFlag := fs.String("models", "", "comma-separated zoo subset (default: every benchmark network)")
	parallelism := fs.Int("parallelism", 0, "optimized run's search workers (0 = GOMAXPROCS)")
	backendsFlag := fs.String("backends", "", `comma-separated memory backend specs ("name" or "name@point") measured per model; empty means the default technology adapter only`)
	axes := fs.Bool("axes", true, "measure the traversal/mapping axis sweep section")
	regress := fs.String("regress", "", "path to a prior snapshot: hard-fail when any cell's allocs/op exceed the prior value by more than 25%+32 or, both snapshots taken at GOMAXPROCS 1, its candidates evaluated or a sweep's descending allocs/op differ; warn when ns/op more than doubles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *iters < 1 {
		fmt.Fprintln(stderr, "rana-bench: -iters must be >= 1")
		return 2
	}
	nets, err := selectModels(*modelsFlag)
	if err != nil {
		fmt.Fprintln(stderr, "rana-bench:", err)
		return 2
	}
	backends, err := selectBackends(*backendsFlag)
	if err != nil {
		fmt.Fprintln(stderr, "rana-bench:", err)
		return 2
	}

	cfg := hw.TestAcceleratorEDRAM()
	snap := Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iters:       *iters,
	}
	for _, net := range nets {
		for _, spec := range backends {
			// The baseline is the historical stateless path: sequential,
			// no memo, no incremental bound pricing.
			base := benchOpts(spec)
			base.Parallelism = 1
			base.DisableMemo = true
			base.DisableIncremental = true
			opt := benchOpts(spec)
			opt.Parallelism = *parallelism
			// The warm run shares one memo across compiles: measure's
			// untimed warmup primes it, so every timed iteration sees the
			// previous compile's entries — the fleet steady state, which
			// must be allocation-free.
			warm := benchOpts(spec)
			warm.Parallelism = *parallelism
			warm.Memo = sched.NewMemo(0)

			runs, err := measureAll(net, cfg, []sched.Options{base, opt, warm}, *iters)
			if err != nil {
				fmt.Fprintln(stderr, "rana-bench:", err)
				return 1
			}
			baseline, optimized, warmed := runs[0], runs[1], runs[2]
			baseline.Strategy = "sequential"
			optimized.Strategy = "parallel-memoized"
			warmed.Strategy = "parallel-memoized-warm"
			nb := NetBench{
				Model:     net.Name,
				Backend:   spec,
				Layers:    len(net.Layers),
				Baseline:  baseline,
				Optimized: optimized,
				Warm:      warmed,
			}
			if optimized.NsPerOp > 0 {
				nb.SpeedupX = float64(baseline.NsPerOp) / float64(optimized.NsPerOp)
			}
			snap.Networks = append(snap.Networks, nb)
			label := net.Name
			if spec != "" {
				label += "/" + spec
			}
			fmt.Fprintf(stdout, "%-24s %3d layers: baseline %8.2fms, optimized %8.2fms (%.2fx, memo %d/%d hits, warm %.0f%% @%d allocs, %d evals)\n",
				label, nb.Layers,
				float64(baseline.NsPerOp)/1e6, float64(optimized.NsPerOp)/1e6,
				nb.SpeedupX, optimized.MemoHits, optimized.MemoHits+optimized.MemoMisses,
				100*warmed.MemoHitRate, warmed.AllocsPerOp, optimized.Evaluated)
		}
	}

	for _, net := range nets {
		for _, space := range sweepSpaces {
			sb, err := measureSweep(net, cfg, space, *parallelism, *iters)
			if err != nil {
				fmt.Fprintln(stderr, "rana-bench:", err)
				return 1
			}
			snap.Sweeps = append(snap.Sweeps, sb)
			label := net.Name
			if sb.Space != "" {
				label += "/" + sb.Space
			}
			fmt.Fprintf(stdout, "%-24s sweep %d intervals: descending %8.2fms/compile (%d rebuilds), ascending %8.1fµs/compile (%d hits, %d allocs)\n",
				label, len(sb.IntervalsUS), float64(sb.Descending.NsPerOp)/1e6, sb.Descending.Rebuilds,
				float64(sb.Ascending.NsPerOp)/1e3, sb.Ascending.MemoHits, sb.Ascending.AllocsPerOp)
		}
	}

	// The traversal/mapping axis sweep, priced at both retention design
	// points. At RANA's extended 734µs interval refresh is already cheap
	// and the linear nest wins everywhere; at the conventional 45µs
	// interval consume-before-deadline reordering beats refreshing —
	// that contrast is the Stage-2 story the numbers have to tell.
	// -axes=false skips it (the CI regression gate only compares the
	// throughput cells).
	axesNets := nets
	if !*axes {
		axesNets = nil
	}
	for _, net := range axesNets {
		for _, sc := range []struct {
			name     string
			interval time.Duration
		}{
			{"extended-retention", retention.TolerableRetentionTime},
			{"conventional-retention", retention.TypicalRetentionTime},
		} {
			ab, err := measureAxes(net, cfg, sc.name, sc.interval)
			if err != nil {
				fmt.Fprintln(stderr, "rana-bench:", err)
				return 1
			}
			snap.Axes = append(snap.Axes, ab)
			fmt.Fprintf(stdout, "%-24s axes @%5.0fµs: %.4g -> %.4g pJ (%.1f%% saved, %d reordered)\n",
				net.Name, ab.RefreshIntervalUS, ab.BaselinePJ, ab.AxesPJ, ab.SavedPct, ab.Reordered)
		}
	}

	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "rana-bench:", err)
		return 1
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintln(stderr, "rana-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	if *regress != "" {
		fails, err := checkRegression(stdout, *regress, &snap)
		if err != nil {
			fmt.Fprintln(stderr, "rana-bench:", err)
			return 1
		}
		if fails > 0 {
			fmt.Fprintf(stderr, "rana-bench: %d regression(s) against %s\n", fails, *regress)
			return 1
		}
		fmt.Fprintf(stdout, "no regressions against %s\n", *regress)
	}
	return 0
}

// checkRegression compares the fresh snapshot's throughput cells against
// a committed prior one. Allocation counts are deterministic, so growth
// beyond slack (25% + 32 allocs, absorbing measurement jitter from the
// MemStats-delta estimator) is a hard failure; wall-clock is noisy on
// shared CI machines, so ns/op regressions only warn. With one worker
// the search's work is deterministic too, so when both snapshots ran at
// GOMAXPROCS 1 any change in a cell's candidates evaluated — more or
// fewer — is a hard failure: a change to one-worker pruning must
// refresh the committed snapshot on purpose, and so is any change in a
// sweep's descending-pass allocations, which measureSweep counts on one
// fixed sweep with the collector off. Cells present on one side only
// (new model, new backend) are skipped — trajectories are compared
// where both snapshots measured the same thing. A sweep's ascending
// pass must allocate nothing, prior snapshot or not.
func checkRegression(stdout io.Writer, path string, snap *Snapshot) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading prior snapshot: %w", err)
	}
	var prior Snapshot
	if err := json.Unmarshal(raw, &prior); err != nil {
		return 0, fmt.Errorf("decoding prior snapshot %s: %w", path, err)
	}
	old := make(map[string]NetBench, len(prior.Networks))
	for _, nb := range prior.Networks {
		old[nb.Model+"\x00"+nb.Backend] = nb
	}
	oldSweeps := make(map[string]SweepBench, len(prior.Sweeps))
	for _, sb := range prior.Sweeps {
		oldSweeps[sb.Model+"\x00"+sb.Space] = sb
	}
	fails := 0
	for _, sb := range snap.Sweeps {
		cell := sb.Model + "/sweep"
		if sb.Space != "" {
			cell += "-" + sb.Space
		}
		if sb.Ascending.AllocsPerOp != 0 {
			fmt.Fprintf(stdout, "FAIL %s: warm ascending pass allocated %d objects/compile, want 0\n",
				cell, sb.Ascending.AllocsPerOp)
			fails++
		}
		p, ok := oldSweeps[sb.Model+"\x00"+sb.Space]
		if ok && prior.GOMAXPROCS == 1 && snap.GOMAXPROCS == 1 && sb.Descending.AllocsPerOp != p.Descending.AllocsPerOp {
			fmt.Fprintf(stdout, "FAIL %s: descending pass allocs/op %d -> %d (one worker: the count is deterministic)\n",
				cell, p.Descending.AllocsPerOp, sb.Descending.AllocsPerOp)
			fails++
		}
	}
	for _, nb := range snap.Networks {
		p, ok := old[nb.Model+"\x00"+nb.Backend]
		if !ok {
			continue
		}
		cell := nb.Model
		if nb.Backend != "" {
			cell += "/" + nb.Backend
		}
		for _, c := range []struct {
			kind     string
			old, new Run
		}{
			{"baseline", p.Baseline, nb.Baseline},
			{"optimized", p.Optimized, nb.Optimized},
			{"warm", p.Warm, nb.Warm},
		} {
			if limit := c.old.AllocsPerOp + c.old.AllocsPerOp/4 + 32; c.new.AllocsPerOp > limit {
				fmt.Fprintf(stdout, "FAIL %s/%s: allocs/op %d -> %d (limit %d)\n",
					cell, c.kind, c.old.AllocsPerOp, c.new.AllocsPerOp, limit)
				fails++
			}
			if prior.GOMAXPROCS == 1 && snap.GOMAXPROCS == 1 && c.new.Evaluated != c.old.Evaluated {
				fmt.Fprintf(stdout, "FAIL %s/%s: candidates evaluated %d -> %d (one worker: the count is deterministic)\n",
					cell, c.kind, c.old.Evaluated, c.new.Evaluated)
				fails++
			}
			if c.old.NsPerOp > 0 && c.new.NsPerOp > 2*c.old.NsPerOp {
				fmt.Fprintf(stdout, "warn %s/%s: ns/op %d -> %d (>2x, not failing: wall-clock is noisy)\n",
					cell, c.kind, c.old.NsPerOp, c.new.NsPerOp)
			}
		}
	}
	return fails, nil
}

// benchOpts is the measured design point: the full RANA option set the
// golden schedules run under, through the given backend spec (empty =
// the default technology adapter).
func benchOpts(spec string) sched.Options {
	opts := sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	}
	if spec != "" {
		opts.Backend = spec
		if i := strings.IndexByte(spec, '@'); i >= 0 {
			opts.Backend, opts.OperatingPoint = spec[:i], spec[i+1:]
		}
	}
	return opts
}

// measureAxes prices one (network, refresh interval) cell of the
// traversal/mapping sweep: the default-axes pruned optimum against the
// same search with the RTC traversal ladder and every mapping policy
// enabled. Both runs use the default pruned strategy — the differential
// matrix (rana-verify -matrix) holds it byte-identical to exhaustive.
func measureAxes(net models.Network, cfg hw.Config, scenario string, interval time.Duration) (AxesBench, error) {
	opts := benchOpts("")
	opts.RefreshInterval = interval
	basePlan, err := sched.Schedule(net, cfg, opts)
	if err != nil {
		return AxesBench{}, fmt.Errorf("%s/%s: %w", net.Name, scenario, err)
	}
	opts.Traversal = "rtc"
	opts.Mapping = "all"
	axesPlan, err := sched.Schedule(net, cfg, opts)
	if err != nil {
		return AxesBench{}, fmt.Errorf("%s/%s: %w", net.Name, scenario, err)
	}
	ab := AxesBench{
		Model:             net.Name,
		Scenario:          scenario,
		RefreshIntervalUS: float64(interval) / float64(time.Microsecond),
		BaselinePJ:        basePlan.Energy.Total(),
		AxesPJ:            axesPlan.Energy.Total(),
	}
	ab.SavedPJ = ab.BaselinePJ - ab.AxesPJ
	if ab.BaselinePJ > 0 {
		ab.SavedPct = 100 * ab.SavedPJ / ab.BaselinePJ
	}
	for i, lp := range axesPlan.Layers {
		if lp.Traversal == "" && lp.Mapping == "" {
			continue
		}
		ab.Reordered++
		w := net.Layers[i].Name
		if lp.Traversal != "" {
			w += " " + lp.Traversal
		}
		if lp.Mapping != "" {
			w += " " + lp.Mapping
		}
		ab.Winners = append(ab.Winners, w)
	}
	return ab, nil
}

// sweepIntervals are the sweep's refresh intervals, descending: the
// Fig. 16 range from RANA's extended retention down to the conventional
// 45µs.
var sweepIntervals = []time.Duration{
	1000 * time.Microsecond, retention.TolerableRetentionTime, 500 * time.Microsecond, 300 * time.Microsecond,
	180 * time.Microsecond, 120 * time.Microsecond, 80 * time.Microsecond, retention.TypicalRetentionTime,
}

// sweepSpace is a search space a model is swept on: its SweepBench.Space
// name and its traversal and mapping specs.
type sweepSpace struct{ name, traversal, mapping string }

// sweepSpaces are the default space and the RTC traversal ladder with
// every mapping policy, whose axis specs every compile resolves again.
var sweepSpaces = []sweepSpace{
	{"", "", ""},
	{"rtc-all", "rtc", "all"},
}

// measureSweep times one model's sweep on one search space over iters
// iterations, each on a fresh shared memo: the descending pass, an
// untimed ascending pass that primes the pools, and the timed ascending
// pass; the fastest iteration of each pass is kept. Allocations are
// per-compile MemStats deltas of one fixed sweep, counted with the
// collector off on a fresh memo after a full collection and an
// identical uncounted sweep: every pool starts empty and is filled the
// same way, and none is emptied mid-count, so the count repeats exactly
// from run to run.
func measureSweep(net models.Network, cfg hw.Config, space sweepSpace, parallelism, iters int) (SweepBench, error) {
	ctx := context.Background()
	sb := SweepBench{Model: net.Name, Space: space.name}
	for _, iv := range sweepIntervals {
		sb.IntervalsUS = append(sb.IntervalsUS, float64(iv)/float64(time.Microsecond))
	}
	ascending := slices.Clone(sweepIntervals)
	slices.Reverse(ascending)
	var p sched.Plan
	pass := func(opts sched.Options, ivs []time.Duration) (SweepPass, error) {
		var ms0, ms1 runtime.MemStats
		before := opts.Memo.Stats()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for _, iv := range ivs {
			opts.RefreshInterval = iv
			if _, err := sched.ExploreNetworkInto(ctx, net, cfg, opts, &p); err != nil {
				return SweepPass{}, fmt.Errorf("%s sweep at %v: %w", net.Name, iv, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		after := opts.Memo.Stats()
		n := int64(len(ivs))
		return SweepPass{
			NsPerOp:     elapsed.Nanoseconds() / n,
			AllocsPerOp: (ms1.Mallocs - ms0.Mallocs) / uint64(n),
			MemoHits:    after.Hits - before.Hits,
			Rebuilds:    after.Rebuilds - before.Rebuilds,
		}, nil
	}
	// sweep runs the descending pass, a priming ascending pass and the
	// measured ascending pass on a fresh memo.
	sweep := func() (down, up SweepPass, err error) {
		opts := benchOpts("")
		opts.Traversal, opts.Mapping = space.traversal, space.mapping
		opts.Parallelism = parallelism
		opts.Memo = sched.NewMemo(0)
		if down, err = pass(opts, sweepIntervals); err != nil {
			return down, up, err
		}
		if _, err = pass(opts, ascending); err != nil {
			return down, up, err
		}
		up, err = pass(opts, ascending)
		return down, up, err
	}
	for i := 0; i < iters; i++ {
		down, up, err := sweep()
		if err != nil {
			return sb, err
		}
		if i == 0 || down.NsPerOp < sb.Descending.NsPerOp {
			sb.Descending = down
		}
		if i == 0 || up.NsPerOp < sb.Ascending.NsPerOp {
			sb.Ascending = up
		}
	}
	runtime.GC()
	runtime.GC() // the first moves pooled objects to the victim caches, the second drops them
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, _, err := sweep(); err != nil {
		return sb, err
	}
	down, up, err := sweep()
	if err != nil {
		return sb, err
	}
	sb.Descending.AllocsPerOp, sb.Ascending.AllocsPerOp = down.AllocsPerOp, up.AllocsPerOp
	return sb, nil
}

// selectBackends validates the -backends flag against the registry. The
// empty spec — the default adapter — is always first so every snapshot
// carries the legacy-comparable cell.
func selectBackends(flagVal string) ([]string, error) {
	out := []string{""}
	if flagVal == "" {
		return out, nil
	}
	seen := map[string]bool{"": true}
	for _, spec := range strings.Split(flagVal, ",") {
		spec = strings.TrimSpace(spec)
		if seen[spec] {
			continue
		}
		if _, _, err := mem.ParseSpec(spec); err != nil {
			return nil, err
		}
		seen[spec] = true
		out = append(out, spec)
	}
	return out, nil
}

// measureAll compiles net iters times under each of the given option
// sets, interleaving the variants round-robin so slow machine drift
// (frequency scaling, noisy neighbors) hits every variant equally and
// the baseline/optimized *ratio* stays trustworthy even when absolute
// wall-clock is noisy. Per variant the fastest sample is kept (minimum
// is the standard noise-resistant estimator for a deterministic
// workload) and allocations are averaged via per-iteration MemStats
// deltas taken outside the timed window. One untimed warmup run per
// variant absorbs first-touch effects (and primes any shared memo), and
// every iteration compiles into the same reused Plan
// (sched.ExploreNetworkInto) — the fleet steady state, where a
// warm-memo compile allocates nothing at all.
func measureAll(net models.Network, cfg hw.Config, variants []sched.Options, iters int) ([]Run, error) {
	ctx := context.Background()
	plans := make([]*sched.Plan, len(variants))
	best := make([]time.Duration, len(variants))
	stats := make([]sched.NetworkStats, len(variants))
	mallocs := make([]uint64, len(variants))
	bytes := make([]uint64, len(variants))
	for j, opts := range variants {
		plans[j] = &sched.Plan{}
		best[j] = -1
		if _, err := sched.ExploreNetworkInto(ctx, net, cfg, opts, plans[j]); err != nil {
			return nil, fmt.Errorf("%s: %w", net.Name, err)
		}
	}
	runtime.GC()
	// The forced GC demotes sync.Pool contents to victim caches; the
	// first compile after it pays a handful of refill allocations that
	// belong to the measurement harness, not the variant. One more
	// untimed pass re-primes the pools so the counted loop starts clean.
	for j, opts := range variants {
		if _, err := sched.ExploreNetworkInto(ctx, net, cfg, opts, plans[j]); err != nil {
			return nil, fmt.Errorf("%s: %w", net.Name, err)
		}
	}
	var ms0, ms1 runtime.MemStats
	for i := 0; i < iters; i++ {
		for j, opts := range variants {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			st, err := sched.ExploreNetworkInto(ctx, net, cfg, opts, plans[j])
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", net.Name, err)
			}
			runtime.ReadMemStats(&ms1)
			if best[j] < 0 || elapsed < best[j] {
				best[j] = elapsed
			}
			mallocs[j] += ms1.Mallocs - ms0.Mallocs
			bytes[j] += ms1.TotalAlloc - ms0.TotalAlloc
			stats[j] = st
		}
	}
	runs := make([]Run, len(variants))
	for j := range variants {
		r := &runs[j]
		r.NsPerOp = best[j].Nanoseconds()
		r.AllocsPerOp = mallocs[j] / uint64(iters)
		r.BytesPerOp = bytes[j] / uint64(iters)
		r.Evaluated = stats[j].Search.Evaluated
		r.MemoHits = stats[j].MemoHits
		r.MemoMisses = stats[j].MemoMisses
		if n := stats[j].MemoHits + stats[j].MemoMisses; n > 0 {
			r.MemoHitRate = float64(stats[j].MemoHits) / float64(n)
		}
		r.Workers = search.EffectiveParallelism(variants[j].Parallelism)
	}
	return runs, nil
}

// selectModels resolves the -models flag against the zoo.
func selectModels(spec string) ([]models.Network, error) {
	all := models.Benchmarks()
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]models.Network, len(all))
	var names []string
	for _, n := range all {
		byName[n.Name] = n
		names = append(names, n.Name)
	}
	var out []models.Network
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		n, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown model %q (want one of %v)", name, names)
		}
		out = append(out, n)
	}
	return out, nil
}
