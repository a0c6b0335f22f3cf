package main

// One run of one workload: set-up, the timed closed loop, and the
// end-to-end metrics.

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"rana/internal/serve"
)

// processStart approximates the process start: package variables are
// initialized before main runs.
var processStart = time.Now()

// Run-shape constants.
const (
	// minTimed is the least number of timed requests: a p90 then has at
	// least eleven samples beyond it even on a slow machine.
	minTimed = 110
	// maxTimed caps the timed requests; the sample buffer is allocated
	// at this size before set-up so its size never depends on speed.
	maxTimed = 250_000
	// maxWarmupRounds bounds a set-up whose memo or cache never fills.
	maxWarmupRounds = 300
)

// bench is one run's state.
type bench struct {
	root     string
	workload string
	seed     uint64
	seconds  time.Duration
	cfg      serve.Config
	hc       *http.Client
	pop      *population
	ck       *checker
	fails    failLog
	out      io.Writer
}

func newBench(root, workload string, seed uint64, seconds time.Duration, goldens map[string][]byte, out io.Writer) *bench {
	pop := newPopulation()
	return &bench{
		root: root, workload: workload, seed: seed, seconds: seconds, hc: newHTTPClient(), out: out,
		pop: pop, ck: newChecker(goldens, len(pop.keys)),
	}
}

// setupRepeats is how many times an untraced run sets up from scratch;
// setup_s is the median. Each set-up is a fresh ranad and a fresh
// stream. axes-sweep sets up once: its set-up is some 260 compiles of
// the enlarged search space, ~17 s on two cores, already long enough to
// average out, and three would make each run over a minute.
func (b *bench) setupRepeats() int {
	if b.workload == axesSweep {
		return 1
	}
	return 3
}

// clients is the workload's closed-loop client count.
func (b *bench) clients() int {
	if b.workload == axesSweep {
		return 1
	}
	return 2
}

// round is the request count the timed phase stops on a multiple of.
func (b *bench) round() int {
	if b.workload == fleetCache {
		return 1
	}
	return sweepRound()
}

func (b *bench) newStream() stream {
	switch b.workload {
	case retentionSweep:
		return newSweepStream(b.seed, false)
	case axesSweep:
		return newSweepStream(b.seed, true)
	}
	return newFleetStream(b.seed, b.pop)
}

func (b *bench) classes() []string {
	if b.workload == fleetCache {
		return fleetClasses()
	}
	return sweepClasses()
}

// setupInfo describes one set-up.
type setupInfo struct {
	took       time.Duration
	rounds     int
	memo       int
	cached     int
	setupStage []*request // the requests that reached Stage 2, in order
}

// setup starts a fresh ranad and brings it to the timed phase's regime:
// the golden checks, then warm-up rounds from the workload's own stream
// until ranad's shared layer memo stops growing (it never evicts, so
// once full every new shape is explored unmemoized) and the plan cache
// is full (it stops growing by one entry per new key), then, for
// fleet-cache, the whole population primed.
func (b *bench) setup() (*ranad, stream, setupInfo, error) {
	t0 := time.Now()
	var info setupInfo
	rd, err := startRanad(b.cfg)
	if err != nil {
		return nil, nil, info, err
	}
	st := b.newStream()
	next := st.next
	if fs, ok := st.(*fleetStream); ok {
		next = fs.nextFresh // fleet-cache warms up on its never-seen requests
	}
	c := &client{hc: b.hc, base: rd.url}
	golden := goldenRequests()
	b.runList(rd, golden)
	info.setupStage = append(info.setupStage, golden...)
	prevMemo, prevCached := -1, -1
	saturated, full := false, false
	for !saturated || !full {
		if info.rounds == maxWarmupRounds {
			rd.stop()
			return nil, nil, info, fmt.Errorf("ranad's memo (%d entries) or plan cache (%d entries) still grew after %d warm-up rounds",
				info.memo, info.cached, info.rounds)
		}
		round := make([]*request, sweepRound())
		for i := range round {
			round[i] = next()
		}
		b.runList(rd, round)
		info.setupStage = append(info.setupStage, round...)
		info.rounds++
		m, err := c.scrape()
		if err != nil {
			rd.stop()
			return nil, nil, info, err
		}
		cached, err := c.cached()
		if err != nil {
			rd.stop()
			return nil, nil, info, err
		}
		memo := int(counter(m, "memo_entries"))
		saturated = saturated || memo == prevMemo
		full = full || (prevCached >= 0 && cached < prevCached+len(round))
		prevMemo, prevCached = memo, cached
		info.memo, info.cached = memo, cached
	}
	if fs, ok := st.(*fleetStream); ok {
		// Coldest first, so the hottest keys are the most recently used
		// when the timed phase starts.
		prime := make([]*request, 0, len(b.pop.keys))
		for k := len(b.pop.keys) - 1; k >= 0; k-- {
			r := fs.popular(k, false)
			r.Kind = kindPrime
			prime = append(prime, r)
		}
		b.runList(rd, prime)
	}
	info.took = time.Since(t0)
	return rd, st, info, nil
}

// phase is one timed closed loop's result.
type phase struct {
	samples []sample
	start   time.Time
	took    time.Duration
	failed  int
}

// timed runs the closed loop: clients draw from the stream until length
// has passed, at least minCount requests were sent and the sent count is
// a whole number of rounds.
func (b *bench) timed(rd *ranad, st stream, out []sample, h hooks, length time.Duration, minCount int) phase {
	var mu sync.Mutex
	issued := 0
	round := b.round()
	start := time.Now()
	pull := func() (*request, int) {
		mu.Lock()
		defer mu.Unlock()
		if issued%round == 0 && (issued >= minCount && time.Since(start) >= length || issued+round > len(out)) {
			return nil, 0
		}
		i := issued
		issued++
		return st.next(), i
	}
	before := b.fails.count()
	loop(b.hc, rd.url, b.clients(), b.ck, &b.fails, start, pull, out, h)
	return phase{samples: out[:issued], start: start, took: time.Since(start), failed: b.fails.count() - before}
}

// e2e holds one untraced run's end-to-end figures.
type e2e struct {
	throughput float64
	p50, p90   float64
	setup      float64
	heapMB     float64
}

// values names the figures as BENCHMARK.json's end-to-end metrics.
func (r e2e) values() map[string]float64 {
	return map[string]float64{
		"throughput_rps": r.throughput,
		"latency_p50_ms": r.p50,
		"latency_p90_ms": r.p90,
		"setup_s":        r.setup,
		"heap_mb":        r.heapMB,
	}
}

// liveHeap forces collection (twice, so pooled objects parked in the
// previous cycle's victim caches go too) and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// latencies returns a phase's per-request latencies in ms, sorted; a
// failed request counts as slower than any that succeeded.
func latencies(p phase) []float64 {
	lat := make([]float64, len(p.samples))
	for i, s := range p.samples {
		lat[i] = ms(s.dur)
		if !s.ok {
			lat[i] = 1e12
		}
	}
	sort.Float64s(lat)
	return lat
}

// runE2E is an untraced run: b.setupRepeats() set-ups, the timed phase on
// the last one, and the end-to-end metrics.
func (b *bench) runE2E() (e2e, error) {
	var r e2e
	samples := make([]sample, maxTimed)
	base := liveHeap()
	preamble := time.Since(processStart)
	var took []float64
	var rd *ranad
	var st stream
	for i := range b.setupRepeats() {
		var info setupInfo
		var err error
		rd, st, info, err = b.setup()
		if err != nil {
			return r, err
		}
		took = append(took, info.took.Seconds())
		fmt.Fprintf(b.out, "set-up %d: %.3f s, %d warm-up rounds, memo %d entries, plan cache %d entries\n",
			i+1, info.took.Seconds(), info.rounds, info.memo, info.cached)
		if i < b.setupRepeats()-1 {
			if err := rd.stop(); err != nil {
				return r, err
			}
		}
	}
	r.setup = preamble.Seconds() + median(took)
	p := b.timed(rd, st, samples, hooks{}, b.seconds, minTimed)
	heap := liveHeap()
	if err := rd.stop(); err != nil {
		return r, err
	}
	r.heapMB = float64(int64(heap)-int64(base)) / (1 << 20)
	r.throughput = float64(len(p.samples)) / p.took.Seconds()
	lat := latencies(p)
	r.p50, _ = percentile(lat, 0.50)
	r.p90, _ = percentile(lat, 0.90)
	b.report(p, lat)
	return r, nil
}

// report prints a phase's per-class latency breakdown and where the
// reported percentiles sit in it.
func (b *bench) report(p phase, sorted []float64) {
	names := b.classes()
	classes := make([]string, len(p.samples))
	lat := make([]float64, len(p.samples))
	for i, s := range p.samples {
		classes[i] = names[s.class]
		lat[i] = ms(s.dur)
	}
	cs := clusters(classes, lat)
	fmt.Fprintf(b.out, "timed: %d requests in %.3f s, %d failed\n", len(p.samples), p.took.Seconds(), p.failed)
	fmt.Fprintf(b.out, "%-26s %7s %7s %9s %9s %9s\n", "class", "share", "count", "p10_ms", "p50_ms", "p90_ms")
	for _, c := range cs {
		fmt.Fprintf(b.out, "%-26s %6.1f%% %7d %9.3f %9.3f %9.3f\n", c.Class, 100*c.Share, c.Count, c.P10, c.P50, c.P90)
	}
	for _, q := range []float64{0.50, 0.90} {
		v, beyond := percentile(sorted, q)
		where := "on a class's inner range"
		if inGap(v, cs, gapMinShare) {
			where = "IN A GAP between classes"
		}
		fmt.Fprintf(b.out, "p%.0f = %.3f ms (n=%d, %d beyond): %s\n", 100*q, v, len(sorted), beyond, where)
	}
}

// gapMinShare is the least share of requests a class needs for its
// inner range to count in the gap check.
const gapMinShare = 0.02
