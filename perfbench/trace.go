package main

// The traced run. It measures from outside, by timing calls into each
// layer's public functions, and never changes the program under test:
//
//  1. One set-up, then timed phases on the same ranad, continuing the
//     same stream, untraced and traced in turn. A traced phase records
//     one span per request (id, endpoint, cache source, start, end),
//     interleaves GET /healthz floor probes and hit probes, and reads
//     /metrics before and after. The throughput difference between the
//     two kinds of phase is the tracing overhead.
//  2. With ranad stopped, the traced phases' inputs are replayed through
//     sched, sched/search, pattern and core: a stage-2 span per request
//     under a shared Memo and PrefixMemo brought to ranad's state by
//     replaying the set-up first; on a fixed sample of requests, a span
//     per CNN layer (sched.ExploreLayer at Parallelism 1, whose
//     search.Stats repeat exactly) and spans for a seeded sample of the
//     cells of those layers' search spaces (sched.Evaluate,
//     pattern.AnalyzeTraversal).
//
// Spans stay in memory and are written to .bench_build/traces/ when the
// run ends. Each links to its parent: request → stage2 → layer → eval.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rana/internal/core"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

const (
	// probeEvery interleaves a /healthz floor probe and a hit probe
	// before every n-th request of a traced phase.
	probeEvery = 20
	// layerSample is how many stage-2 requests the layer-level replays
	// cover: two sweep rounds, so the sample holds the sweep's mix.
	layerSample = 20
	// cellsPerLayer is how many search cells per layer the eval spans
	// sample.
	cellsPerLayer = 20
	// stage13Repeats is how many times each zoo network is compiled to
	// time Stages 1 and 3.
	stage13Repeats = 5
)

// span is one traced interval.
type span struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
	Attr   string  `json:"attr,omitempty"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(id, parent, layer, name string, start time.Time, dur time.Duration, attr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: float64(start.Sub(t.epoch)) / 1e3, Dur: float64(dur) / 1e3, Attr: attr})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schedOptions rebuilds the accelerator and sched.Options ranad resolves
// a /v1/schedule request to: test-edram unless named otherwise, OD+WD,
// the 734 µs tolerable interval, the refresh-optimized controller on
// eDRAM, and the uniform fallback under a deadline below the degrade
// budget.
func schedOptions(s *schedSpec) (hw.Config, sched.Options, error) {
	cfg := hw.TestAcceleratorEDRAM()
	if s.Accelerator == "test" {
		cfg = hw.TestAccelerator()
	}
	opts := sched.Options{Patterns: []pattern.Kind{pattern.OD, pattern.WD}, RefreshInterval: retention.TolerableRetentionTime,
		Search: search.Strategy(s.Search), Traversal: s.Traversal, Mapping: s.Mapping}
	if len(s.Patterns) > 0 {
		opts.Patterns = nil
		for _, p := range s.Patterns {
			k, ok := map[string]pattern.Kind{"ID": pattern.ID, "OD": pattern.OD, "WD": pattern.WD}[p]
			if !ok {
				return cfg, opts, fmt.Errorf("unknown pattern %q", p)
			}
			opts.Patterns = append(opts.Patterns, k)
		}
	}
	if s.IntervalNS > 0 {
		opts.RefreshInterval = time.Duration(s.IntervalNS)
	}
	ctrl := s.Controller
	if ctrl == "" {
		ctrl = "none"
		if s.Accelerator == "" {
			ctrl = "optimized"
		}
	}
	switch ctrl {
	case "none":
		opts.RefreshInterval = 0
	case "conventional":
		opts.Controller = memctrl.Conventional{}
	case "optimized":
		opts.Controller = memctrl.RefreshOptimized{}
	default:
		return cfg, opts, fmt.Errorf("unknown controller %q", ctrl)
	}
	if s.degraded() {
		opts = opts.Fallback()
	}
	return cfg, opts, nil
}

// keeper collects what the traced phases' responses leave for the
// replays: every request that reached Stage 2 and, for sweeps, its
// served plan.
type keeper struct {
	mu        sync.Mutex
	stage2    []*request
	plans     map[int][]byte
	floors    []time.Duration
	hitProbes []hitProbe
}

// hitProbe is one hit probe's client span.
type hitProbe struct {
	d      time.Duration
	inline bool
}

// runTraced is the traced run; it returns the per-layer metrics.
func (b *bench) runTraced() (map[string]float64, error) {
	tr := &tracer{epoch: processStart}
	v := map[string]float64{}
	rd, st, info, err := b.setup()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "set-up: %.3f s, %d warm-up rounds\n", info.took.Seconds(), info.rounds)

	k := &keeper{plans: map[int][]byte{}}
	c := &client{hc: b.hc, base: rd.url}
	var probes atomic.Int64
	probe := func(c *client, i int, prev *request) {
		if i%probeEvery != 0 {
			return
		}
		n := probes.Add(1)
		t0 := time.Now()
		o := c.get("/healthz")
		d := time.Since(t0)
		if o.err == nil && o.status == 200 {
			k.mu.Lock()
			k.floors = append(k.floors, d)
			k.mu.Unlock()
			tr.add(fmt.Sprintf("f%d", n), "", "serve", "GET /healthz", t0, d, "")
		}
		if prev == nil {
			return
		}
		// The hit probe: the client's previous request, which ranad has
		// just cached, sent again, every other time with its network
		// spelled out. The sweeps have no hits of their own.
		hp := *prev
		if n%2 == 0 && hp.Sched != nil {
			hp.Body, hp.Inline = scheduleBody(hp.network(), true, hp.Sched), true
		}
		t1 := time.Now()
		o = c.do(&hp)
		d1 := time.Since(t1)
		b.ck.checked.Add(1)
		if o.err != nil || o.status != 200 {
			b.fails.add("hit probe for request %d: status %d: %v", hp.ID, o.status, o.err)
			return
		}
		if o.source == "hit" {
			k.mu.Lock()
			k.hitProbes = append(k.hitProbes, hitProbe{d: d1, inline: hp.Inline})
			k.mu.Unlock()
			tr.add(fmt.Sprintf("h%d", n), "", "serve", "hit probe", t1, d1, "")
		}
	}
	keep := func(r *request, o outcome) {
		if o.source != "miss" || r.Kind == kindPopular {
			return
		}
		k.mu.Lock()
		defer k.mu.Unlock()
		k.stage2 = append(k.stage2, r)
		if r.Kind == kindSweep {
			if plan, err := planOf(o.body); err == nil {
				k.plans[r.ID] = bytes.Clone(plan)
			}
		}
	}
	// Traced (B) and untraced (A) phases alternate, B A B A, each a
	// quarter of the run length, so a drift in machine speed during the
	// run falls on both sides of the overhead comparison alike. The first
	// traced phase starts where set-up left the stream, so its first
	// Stage-2 requests, the layer-level replays' sample, are the same on
	// every run with the seed.
	quarter := max(time.Second, b.seconds/4)
	var traced []phase
	var nA, nB int
	var tA, tB time.Duration
	deltas := map[string]float64{}
	untraced := make([]sample, maxTimed)
	for range 2 {
		m0, err := c.scrape()
		if err != nil {
			rd.stop()
			return nil, err
		}
		pb := b.timed(rd, st, make([]sample, maxTimed), hooks{probe: probe, keep: keep}, quarter, minTimed/2)
		nB, tB = nB+len(pb.samples), tB+pb.took
		traced = append(traced, pb)
		m1, err := c.scrape()
		if err != nil {
			rd.stop()
			return nil, err
		}
		for _, name := range []string{"shed", "deduped", "memo_hits"} {
			deltas[name] += counter(m1, name) - counter(m0, name)
		}
		pa := b.timed(rd, st, untraced, hooks{}, quarter, minTimed/2)
		nA, tA = nA+len(pa.samples), tA+pa.took
	}
	if err := rd.stop(); err != nil {
		return nil, err
	}
	rpsA, rpsB := float64(nA)/tA.Seconds(), float64(nB)/tB.Seconds()
	v["trace.overhead_pct"] = 100 * (rpsA - rpsB) / rpsA
	fmt.Fprintf(b.out, "untraced phases: %d requests, %.2f/s; traced phases: %d requests, %.2f/s\n", nA, rpsA, nB, rpsB)
	b.serveMetrics(v, traced, k, deltas, tr)

	sort.Slice(k.stage2, func(i, j int) bool { return k.stage2[i].ID < k.stage2[j].ID })
	if err := b.replay(v, info.setupStage, k.stage2, tr); err != nil {
		return nil, err
	}
	if b.workload != fleetCache {
		if err := b.exhaustiveCheck(k.stage2, k.plans); err != nil {
			return nil, err
		}
	}
	if err := stage13(v, tr); err != nil {
		return nil, err
	}
	path := filepath.Join(b.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.out, "wrote %d spans to %s\n", len(tr.spans), path)
	return v, nil
}

// serveMetrics derives the serve.* metrics from the traced phases: client
// spans split by cache source, the hit probes, the /healthz floor and
// /metrics deltas. serve.hit_ratio counts the workload's own requests
// only.
func (b *bench) serveMetrics(v map[string]float64, phases []phase, k *keeper,
	deltas map[string]float64, tr *tracer) {
	var hits, inline, misses, floor []float64
	fullMisses, total, ownHits := 0, 0, 0
	classes := b.classes()
	for _, p := range phases {
		total += len(p.samples)
		for _, s := range p.samples {
			tr.add(fmt.Sprintf("r%d", s.id), "", "serve", classes[s.class], p.start.Add(s.start), s.dur,
				[]string{"error", "hit", "miss", "other"}[s.src])
			switch {
			case !s.ok:
			case s.src == srcHit:
				ownHits++
				hits = append(hits, ms(s.dur))
				if s.inline {
					inline = append(inline, ms(s.dur))
				}
			case s.src == srcMiss:
				misses = append(misses, ms(s.dur))
				if s.kind != kindFresh {
					fullMisses++
				}
			}
		}
	}
	for _, f := range k.floors {
		floor = append(floor, ms(f))
	}
	for _, h := range k.hitProbes {
		hits = append(hits, ms(h.d))
		if h.inline {
			inline = append(inline, ms(h.d))
		}
	}
	for _, xs := range [][]float64{hits, inline, misses, floor} {
		sort.Float64s(xs)
	}
	var beyond int
	v["serve.hit_ms_p50"], _ = percentile(hits, 0.50)
	v["serve.hit_ms_p99"], beyond = percentile(hits, 0.99)
	v["serve.hit_count"] = float64(len(hits))
	v["serve.inline_hit_ms_p50"], _ = percentile(inline, 0.50)
	v["serve.floor_ms_p50"], _ = percentile(floor, 0.50)
	v["serve.miss_ms_p50"], _ = percentile(misses, 0.50)
	v["serve.hit_ratio"] = float64(ownHits) / float64(max(1, total))
	v["serve.full_miss_count"] = float64(fullMisses)
	v["serve.shed"] = deltas["shed"]
	v["serve.deduped"] = deltas["deduped"]
	fmt.Fprintf(b.out, "traced phases: %d hits, %d of them probes (%d inline, p99 has %d beyond), %d misses (%d full), %d floor probes; ranad memo hits +%.0f\n",
		len(hits), len(k.hitProbes), len(inline), beyond, len(misses), fullMisses, len(floor), deltas["memo_hits"])
}

// replay runs the traced phases' stage-2 inputs through sched.
func (b *bench) replay(v map[string]float64, setupStage, stage2 []*request, tr *tracer) error {
	ctx := context.Background()
	memo, prefix := sched.NewMemo(0), sched.NewPrefixMemo(0)
	explore := func(r *request, parallelism int) (*sched.Plan, sched.NetworkStats, time.Time, time.Duration, error) {
		cfg, opts, err := schedOptions(r.Sched)
		if err != nil {
			return nil, sched.NetworkStats{}, time.Time{}, 0, err
		}
		opts.Memo, opts.Prefix, opts.Parallelism = memo, prefix, parallelism
		t0 := time.Now()
		plan, ns, err := sched.ExploreNetworkContext(ctx, r.network(), cfg, opts)
		return plan, ns, t0, time.Since(t0), err
	}
	for _, r := range setupStage {
		if _, _, _, _, err := explore(r, 0); err != nil {
			return fmt.Errorf("replaying set-up request %d: %w", r.ID, err)
		}
	}
	if len(stage2) == 0 {
		return fmt.Errorf("no request of the traced phase reached Stage 2")
	}

	// Stage 2 per request, as ranad runs it.
	var total time.Duration
	perNet := make([]time.Duration, len(zoo))
	perNetN := make([]int, len(zoo))
	var memoHits, memoLookups [2]int
	var prefixHits, prefixLookups uint64
	var encode time.Duration
	for i, r := range stage2 {
		plan, ns, t0, d, err := explore(r, 0)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", r.ID, err)
		}
		tr.add(fmt.Sprintf("s%d", r.ID), fmt.Sprintf("r%d", r.ID), "sched", "ExploreNetworkContext", t0, d, r.network().Name)
		total += d
		perNet[r.Net] += d
		perNetN[r.Net]++
		half := min(1, 2*i/len(stage2))
		memoHits[half] += ns.MemoHits
		memoLookups[half] += ns.MemoHits + ns.MemoMisses
		prefixHits += ns.PrefixHits
		prefixLookups += ns.PrefixHits + ns.PrefixMisses
		t1 := time.Now()
		if _, err := json.Marshal(sched.Encode(plan)); err != nil {
			return fmt.Errorf("encoding plan %d: %w", r.ID, err)
		}
		encode += time.Since(t1)
	}
	n := float64(len(stage2))
	v["sched.stage2_ms"] = ms(total) / n
	for i, net := range zoo {
		v["sched.stage2_ms."+net.Name] = 0
		if perNetN[i] > 0 {
			v["sched.stage2_ms."+net.Name] = ms(perNet[i]) / float64(perNetN[i])
		}
	}
	ratio := func(h, n int) float64 { return float64(h) / float64(max(1, n)) }
	v["sched.memo_hit_ratio"] = ratio(memoHits[0]+memoHits[1], memoLookups[0]+memoLookups[1])
	v["sched.prefix_hit_ratio"] = float64(prefixHits) / float64(max(1, prefixLookups))
	v["sched.encode_us"] = float64(encode) / 1e3 / n
	fmt.Fprintf(b.out, "stage 2 replay: %d requests; memo hit ratio %.4f in the first half, %.4f in the second\n",
		len(stage2), ratio(memoHits[0], memoLookups[0]), ratio(memoHits[1], memoLookups[1]))

	// Parallel speed-up and the layer-level replays on a sample: the first
	// Stage-2 requests of the first traced phase.
	sample := stage2[:min(layerSample, len(stage2))]
	var seq, par time.Duration
	for i, r := range sample {
		order := []int{1, 0}
		if i%2 == 1 {
			order = []int{0, 1}
		}
		for _, p := range order {
			_, _, _, d, err := explore(r, p)
			if err != nil {
				return err
			}
			if p == 1 {
				seq += d
			} else {
				par += d
			}
		}
	}
	v["sched.parallel_speedup"] = float64(seq) / float64(par)
	return b.layerReplay(v, sample, tr)
}

// layerReplay times every CNN layer of the sample through
// sched.ExploreLayer at Parallelism 1, sums its search.Stats, and times
// a seeded sample of each layer's search cells.
func (b *bench) layerReplay(v map[string]float64, sample []*request, tr *tracer) error {
	rng := rand.New(rand.NewPCG(b.seed, 0xce11))
	var stats search.Stats
	var layers []float64
	var seq time.Duration
	var eval, analyze time.Duration
	evals := 0
	for _, r := range sample {
		cfg, opts, err := schedOptions(r.Sched)
		if err != nil {
			return err
		}
		opts.Parallelism = 1
		travs, err := sched.ParseTraversalSpec(opts.Traversal)
		if err != nil {
			return err
		}
		for li, l := range r.network().Layers {
			lid := fmt.Sprintf("l%d.%d", r.ID, li)
			t0 := time.Now()
			_, st, err := sched.ExploreLayer(l, cfg, opts)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("exploring %s/%s: %w", r.network().Name, l.Name, err)
			}
			tr.add(lid, fmt.Sprintf("s%d", r.ID), "sched", "ExploreLayer", t0, d, l.Name)
			stats.Add(st)
			layers = append(layers, ms(d))
			seq += d
			for ci, cell := range sampleCells(rng, l, cfg, opts.Patterns, travs, cellsPerLayer) {
				t1 := time.Now()
				_, err := sched.Evaluate(l, cell.kind, cell.tiling, cfg, opts)
				d1 := time.Since(t1)
				if err != nil {
					return fmt.Errorf("evaluating a cell of %s: %w", l.Name, err)
				}
				t2 := time.Now()
				_, err = pattern.AnalyzeTraversal(l, cell.kind, cell.tiling, cfg, cell.trav)
				d2 := time.Since(t2)
				if err != nil {
					return fmt.Errorf("analyzing a cell of %s: %w", l.Name, err)
				}
				tr.add(fmt.Sprintf("e%d.%d.%d", r.ID, li, ci), lid, "sched", "Evaluate", t1, d1, "")
				tr.add(fmt.Sprintf("a%d.%d.%d", r.ID, li, ci), lid, "pattern", "AnalyzeTraversal", t2, d2, "")
				eval += d1
				analyze += d2
				evals++
			}
		}
	}
	n := float64(len(sample))
	v["search.candidates"] = float64(stats.Candidates) / n
	v["search.bounded"] = float64(stats.Bounded) / n
	v["search.pruned"] = float64(stats.Pruned) / n
	v["search.evaluated"] = float64(stats.Evaluated) / n
	v["search.eval_ratio"] = float64(stats.Evaluated) / float64(max(1, stats.Candidates))
	sort.Float64s(layers)
	v["sched.layer_ms_p50"], _ = percentile(layers, 0.50)
	v["sched.layer_ms_max"] = layers[len(layers)-1]
	v["pattern.eval_us"] = float64(eval) / 1e3 / float64(max(1, evals))
	v["pattern.analyze_us"] = float64(analyze) / 1e3 / float64(max(1, evals))
	// sched.Evaluate also resolves the memory backend on every call, work
	// the search does once per layer, so evaluated × eval_us overstates
	// the search's exact pricing (it exceeded the whole Stage-2 time).
	// Subtracting evaluated × analyze_us, the analysis each exact
	// evaluation runs, leaves an upper estimate of the time spent
	// enumerating, bounding and pruning.
	v["search.bound_ms"] = (ms(seq) - float64(stats.Evaluated)*v["pattern.analyze_us"]/1e3) / n
	fmt.Fprintf(b.out, "layer replay: %d requests, %d layers, %.3f ms of Stage 2 per request at Parallelism 1, %d cells; search.Stats %+v\n",
		len(sample), len(layers), ms(seq)/n, evals, stats)
	return nil
}

// cell is one (pattern, tiling, traversal) point of a layer's search
// space.
type cell struct {
	kind   pattern.Kind
	tiling pattern.Tiling
	trav   pattern.Traversal
}

// sampleCells draws n admitted cells of l's search space: the tiling
// axes the scheduler streams (search.Axis per dimension of the per-group
// layer), the options' patterns and the traversal axis.
func sampleCells(rng *rand.Rand, l models.ConvLayer, cfg hw.Config, kinds []pattern.Kind,
	travs []pattern.Traversal, n int) []cell {
	e := l
	if e.Groups > 1 {
		e.N /= e.Groups
		e.M /= e.Groups
		e.Groups = 1
	}
	tms, tns := search.Axis(e.M, cfg.ArrayM), search.Axis(e.N, cfg.ArrayN)
	trs, tcs := search.Axis(e.R(), cfg.ArrayM), search.Axis(e.C(), cfg.ArrayN)
	var out []cell
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		t := pattern.Tiling{Tm: tms[rng.IntN(len(tms))], Tn: tns[rng.IntN(len(tns))],
			Tr: trs[rng.IntN(len(trs))], Tc: tcs[rng.IntN(len(tcs))]}
		if !t.FitsCore(e, cfg) {
			continue
		}
		out = append(out, cell{kind: kinds[rng.IntN(len(kinds))], tiling: t, trav: travs[rng.IntN(len(travs))]})
	}
	return out
}

// exhaustiveCheck recomputes one traced request per network with the
// exhaustive strategy and compares its plan byte for byte with the plan
// ranad served under the pruned default.
func (b *bench) exhaustiveCheck(stage2 []*request, plans map[int][]byte) error {
	seen := make([]bool, len(zoo))
	checked := 0
	for _, r := range stage2 {
		if seen[r.Net] {
			continue
		}
		seen[r.Net] = true
		checked++
		cfg, opts, err := schedOptions(r.Sched)
		if err != nil {
			return err
		}
		opts.Search = search.Exhaustive
		plan, err := sched.ScheduleContext(context.Background(), r.network(), cfg, opts)
		b.ck.checked.Add(1)
		if err != nil {
			b.fails.add("exhaustive recompute of request %d: %v", r.ID, err)
			continue
		}
		want, err := json.Marshal(sched.Encode(plan))
		if err != nil {
			return err
		}
		if !bytes.Equal(want, plans[r.ID]) {
			b.fails.add("request %d (%s): served plan differs from the exhaustive recompute", r.ID, r.network().Name)
		}
	}
	fmt.Fprintf(b.out, "exhaustive recompute: %d plans checked\n", checked)
	return nil
}

// stage13 times core.Framework.CompileContext and the Stage-2 part of it
// (sched.ExploreNetworkContext under the options the compile used) on
// every zoo network, with a warm shared memo so Stage 2 is short and the
// difference, Stages 1 and 3, is not lost in its noise.
func stage13(v map[string]float64, tr *tracer) error {
	ctx := context.Background()
	memo, prefix := sched.NewMemo(0), sched.NewPrefixMemo(0)
	total := 0.0
	for _, net := range zoo {
		f := core.New()
		f.Memo, f.Prefix = memo, prefix
		out, err := f.CompileContext(ctx, net)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", net.Name, err)
		}
		var comp, stage2 []float64
		for i := range stage13Repeats {
			t0 := time.Now()
			if _, err := f.CompileContext(ctx, net); err != nil {
				return err
			}
			d := time.Since(t0)
			t1 := time.Now()
			if _, _, err := sched.ExploreNetworkContext(ctx, net, out.Config, out.Plan.Options); err != nil {
				return err
			}
			d1 := time.Since(t1)
			id := fmt.Sprintf("c%s.%d", net.Name, i)
			tr.add(id, "", "core", "CompileContext", t0, d, net.Name)
			tr.add(id+".s2", id, "sched", "ExploreNetworkContext", t1, d1, net.Name)
			comp = append(comp, ms(d))
			stage2 = append(stage2, ms(d1))
		}
		total += median(comp) - median(stage2)
	}
	v["core.stage13_ms"] = total / float64(len(zoo))
	return nil
}
