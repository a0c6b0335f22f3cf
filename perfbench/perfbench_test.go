package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"testing"
	"time"

	"rana/internal/models"
	"rana/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0, 1, 9},
		{0.10, 1, 9},
		{0.50, 5, 5},
		{0.90, 9, 1},
		{0.91, 10, 0},
		{0.99, 10, 0},
		{1, 10, 0},
	} {
		got, beyond := percentile(sorted, c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..10, %v) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.beyond)
		}
	}
	// 110 samples are the least a timed phase sends: p90 then has eleven
	// samples beyond it.
	big := make([]float64, 110)
	for i := range big {
		big[i] = float64(i)
	}
	if _, beyond := percentile(big, 0.90); beyond != 11 {
		t.Errorf("p90 of 110 samples has %d beyond, want 11", beyond)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of no samples = %v, %d", v, beyond)
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(values, n=4) returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{10.5, 11.0, 9.8, 10.1, 12.3, 10.0, 9.9, 10.7, 11.4, 10.2}, [3]float64{9.975, 10.35, 11.1}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7, 7, 8}, [3]float64{7, 7, 8}},
	} {
		q1, med, q3 := quartiles(c.in)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
				break
			}
		}
	}
}

// firstBodies returns the endpoints and bodies of a stream's first n
// requests.
func firstBodies(workload string, seed uint64, n int) []byte {
	b := &bench{workload: workload, seed: seed, pop: newPopulation()}
	st := b.newStream()
	var out bytes.Buffer
	for range n {
		r := st.next()
		out.WriteString(r.Endpoint)
		out.Write(r.Body)
		out.WriteByte('\n')
	}
	if fs, ok := st.(*fleetStream); ok {
		for range n {
			out.Write(fs.nextFresh().Body)
		}
	}
	return out.Bytes()
}

func TestRequestListsDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b := firstBodies(w, 7, 2000), firstBodies(w, 7, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", w)
		}
		if bytes.Equal(a, firstBodies(w, 8, 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w)
		}
	}
}

// TestSweepStreamShape checks that every sweep round holds each network
// in its weight.
func TestSweepStreamShape(t *testing.T) {
	st := newSweepStream(3, false)
	for round := 0; round < 300; round++ {
		count := make([]int, len(zoo))
		for range sweepRound() {
			count[st.next().Net]++
		}
		for net, w := range sweepWeights {
			if count[net] != w {
				t.Fatalf("round %d holds %d %s requests, want %d", round, count[net], zoo[net].Name, w)
			}
		}
	}
}

// TestIntervalsNeverRepeat checks the interval draw over 20,000
// intervals per network: every one in range, none repeated within a
// network or shared between two.
func TestIntervalsNeverRepeat(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		iv := newIntervals(rand.New(rand.NewPCG(seed, 0)))
		seen := map[int64]int{}
		for i := 0; i < 20_000; i++ {
			for net := range zoo {
				ns := iv.next(net)
				if ns < minIntervalNS || ns >= maxIntervalNS {
					t.Fatalf("seed %d: %s interval %d out of range", seed, zoo[net].Name, ns)
				}
				if prev, ok := seen[ns]; ok {
					t.Fatalf("seed %d: interval %d drawn for %s and %s", seed, ns, zoo[prev].Name, zoo[net].Name)
				}
				seen[ns] = net
			}
		}
	}
}

// TestPopulationRanking checks that the ranking holds every key once
// and puts the four golden keys first.
func TestPopulationRanking(t *testing.T) {
	keys := rankedKeys()
	if want := len(zoo) * (len(popSchedules) + len(popCompiles) + len(popDesigns)); len(keys) != want {
		t.Fatalf("%d ranked keys, want %d", len(keys), want)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		id := k.Endpoint + string(k.body(false))
		if seen[id] {
			t.Fatalf("key %s ranked twice", id)
		}
		seen[id] = true
	}
	for i, k := range keys[:len(zoo)] {
		if k.Endpoint != "/v1/schedule" || !k.Sched.isDefault() {
			t.Errorf("rank %d is %s %+v, want a golden key", i+1, k.Endpoint, k.Sched)
		}
	}
}

// TestCheckerPopulation checks the population checks: a primed key must
// later be a hit with the primed bytes.
func TestCheckerPopulation(t *testing.T) {
	goldens, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	pop := newPopulation()
	ck := newChecker(goldens, len(pop.keys))
	fs := newFleetStream(1, pop)
	k := len(zoo) // the first non-golden key, a default compile
	net := zoo[pop.keys[k].Net]
	prime := fs.popular(k, false)
	prime.Kind = kindPrime
	body := mustJSON(map[string]any{"artifact": map[string]any{"network": net.Name},
		"plan": map[string]any{"network": net.Name, "layers": layerNames(net.Layers)}})
	if err := ck.check(prime, outcome{status: 200, source: "miss", body: body}); err != nil {
		t.Fatalf("priming failed: %v", err)
	}
	later := fs.popular(k, true)
	if err := ck.check(later, outcome{status: 200, source: "hit", body: body}); err != nil {
		t.Errorf("a hit with the primed bytes failed: %v", err)
	}
	if err := ck.check(later, outcome{status: 200, source: "miss", body: body}); err == nil {
		t.Error("a primed key served as a miss passed")
	}
	changed := bytes.Replace(body, []byte(net.Name), []byte(net.Name+" "), 1)
	if err := ck.check(later, outcome{status: 200, source: "hit", body: changed}); err == nil {
		t.Error("a hit with other bytes than the primed ones passed")
	}
}

func layerNames(layers []models.ConvLayer) []map[string]string {
	var out []map[string]string
	for _, l := range layers {
		out = append(out, map[string]string{"name": l.Name})
	}
	return out
}

func TestGoldenRejectsOneByteChange(t *testing.T) {
	goldens, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	for name, golden := range goldens {
		var plan bytes.Buffer
		if err := json.Compact(&plan, golden); err != nil {
			t.Fatal(err)
		}
		if err := checkGolden(plan.Bytes(), golden); err != nil {
			t.Errorf("%s: the golden plan itself fails the check: %v", name, err)
		}
		// Change one digit inside the plan: still valid JSON.
		mutated := plan.Bytes()
		i := bytes.IndexAny(mutated, "123456789")
		mutated[i] = '0' + (mutated[i]-'0')%9 + 1
		if err := checkGolden(mutated, golden); err == nil {
			t.Errorf("%s: a one-byte change at offset %d passed the golden check", name, i)
		}
	}
}

func TestCheckBodyRejectsWrongPlans(t *testing.T) {
	goldens, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	var plan bytes.Buffer
	if err := json.Compact(&plan, goldens["VGG"]); err != nil {
		t.Fatal(err)
	}
	golden := goldenRequests()[1] // VGG
	body := func(degraded bool, p []byte) []byte {
		return mustJSON(map[string]any{"plan": json.RawMessage(p), "degraded": degraded, "refresh_interval_ns": 734000})
	}
	if err := checkBody(body(false, plan.Bytes()), golden, goldens); err != nil {
		t.Fatalf("the golden VGG response fails: %v", err)
	}
	if err := checkBody(body(true, plan.Bytes()), golden, goldens); err == nil {
		t.Error("an unexpected degraded marker passed")
	}
	// The same plan answering an AlexNet request: wrong network.
	wrongNet := *golden
	wrongNet.Net, wrongNet.Kind = 0, kindSweep
	if err := checkBody(body(false, plan.Bytes()), &wrongNet, goldens); err == nil {
		t.Error("a VGG plan passed for an AlexNet request")
	}
}

// TestMetricNamesMatchContract checks that an untraced run names its
// figures as BENCHMARK.json names the end-to-end metrics, that the
// workloads agree, and that a missing or undefined metric fails a run
// rather than printing a short result line.
func TestMetricNamesMatchContract(t *testing.T) {
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metricsFor(c.EndToEnd, e2e{}.values()); err != nil {
		t.Errorf("untraced run: %v", err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, defs := range [][]metricDef{c.EndToEnd, c.PerLayer} {
		values := map[string]float64{}
		for _, d := range defs {
			values[d.Name] = 1
		}
		got, err := metricsFor(defs, values)
		if err != nil || len(got) != len(defs) {
			t.Fatalf("metricsFor = %d metrics, %v", len(got), err)
		}
		delete(values, defs[0].Name)
		if _, err := metricsFor(defs, values); err == nil {
			t.Error("a missing metric went unreported")
		}
		values[defs[0].Name], values["extra"] = 1, 1
		if _, err := metricsFor(defs, values); err == nil {
			t.Error("an undefined metric went unreported")
		}
	}
}

// TestBreakdownHasNoGaps runs each workload's timed loop briefly and
// checks that neither reported percentile sits in a gap between request
// classes. A memo of one entry puts ranad straight into the saturated
// regime the benchmark's set-up warms it to, and a small plan cache
// fills after two rounds, so the test skips the long warm-up.
func TestBreakdownHasNoGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("starts ranad and runs every workload")
	}
	goldens, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			b := newBench("..", w, 11, time.Second, goldens, io.Discard)
			b.cfg = serve.Config{MemoEntries: 1, CacheEntries: 32}
			if w == fleetCache {
				b.cfg.CacheEntries = 0 // the default; the population must fit
			}
			rd, st, _, err := b.setup()
			if err != nil {
				t.Fatal(err)
			}
			p := b.timed(rd, st, make([]sample, maxTimed), hooks{}, b.seconds, minTimed)
			if err := rd.stop(); err != nil {
				t.Fatal(err)
			}
			if n := b.fails.count(); n > 0 {
				t.Fatalf("%d requests failed: %v", n, b.fails.reasons)
			}
			classes := make([]string, len(p.samples))
			lat := make([]float64, len(p.samples))
			for i, s := range p.samples {
				classes[i], lat[i] = b.classes()[s.class], ms(s.dur)
			}
			cs := clusters(classes, lat)
			sorted := latencies(p)
			for _, q := range []float64{0.50, 0.90} {
				if v, _ := percentile(sorted, q); inGap(v, cs, gapMinShare) {
					t.Errorf("p%.0f = %.3f ms sits between classes: %+v", 100*q, v, cs)
				}
			}
		})
	}
}

func TestInGap(t *testing.T) {
	fast := make([]float64, 50)
	slow := make([]float64, 50)
	var classes []string
	for i := range fast {
		fast[i], slow[i] = 1+float64(i)/100, 10+float64(i)/10
		classes = append(classes, "fast")
	}
	for range slow {
		classes = append(classes, "slow")
	}
	cs := clusters(classes, append(fast, slow...))
	if !inGap(5, cs, 0.02) {
		t.Error("a value between the two clusters was not flagged")
	}
	if inGap(1.2, cs, 0.02) || inGap(12, cs, 0.02) {
		t.Error("a value inside a cluster was flagged")
	}
}

// TestRanadStops checks that a started ranad answers and that stop waits
// for its serve loop.
func TestRanadStops(t *testing.T) {
	rd, err := startRanad(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(rd.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := rd.stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(rd.url + "/healthz"); err == nil {
		t.Error("ranad still answers after stop")
	}
}
