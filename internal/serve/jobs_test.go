package serve

// Async batch API tests: the 202 → poll → done lifecycle with results
// byte-identical to the sync endpoints, cancellation, job-table bounds
// with oldest-done eviction, per-entry failure isolation under chaos,
// and submit-time validation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rana/internal/serve/chaos"
	"rana/internal/serve/shard"
)

// submitBatch posts a batch and returns the accepted job, failing the
// test on a non-202.
func submitBatch(t *testing.T, baseURL, body string) BatchAccepted {
	t.Helper()
	resp := post(t, baseURL+"/v1/compile-batch", body)
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: status %d: %s", resp.StatusCode, b)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatalf("batch submit body: %v\n%s", err, b)
	}
	if acc.ID == "" || acc.Total == 0 {
		t.Fatalf("batch submit body incomplete: %+v", acc)
	}
	return acc
}

// getJob fetches a job's status, returning the HTTP status too.
func getJob(t *testing.T, baseURL, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	b := readBody(t, resp)
	var js JobStatus
	if resp.StatusCode == 200 {
		if err := json.Unmarshal(b, &js); err != nil {
			t.Fatalf("job status body: %v\n%s", err, b)
		}
	}
	return js, resp.StatusCode
}

// pollJob polls until the job leaves "running" or the deadline hits.
func pollJob(t *testing.T, baseURL, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		js, code := getJob(t, baseURL, id)
		if code != 200 {
			t.Fatalf("polling %s: status %d", id, code)
		}
		if js.Status != "running" {
			return js
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 20s", id)
	return JobStatus{}
}

func TestBatchLifecycleMatchesSyncBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := `{"entries": [
		{"op": "compile", "compile": {"network": ` + tinyNetJSON + `}},
		{"compile": {"model": "AlexNet"}},
		{"op": "schedule", "schedule": {"network": ` + tinyNetJSON + `}}
	]}`
	acc := submitBatch(t, ts.URL, batch)
	if acc.Total != 3 {
		t.Fatalf("total = %d, want 3", acc.Total)
	}
	js := pollJob(t, ts.URL, acc.ID)
	if js.Status != "done" || js.Finished != 3 {
		t.Fatalf("job = %q with %d finished, want done/3", js.Status, js.Finished)
	}

	// Every entry's result must be byte-identical to the equivalent sync
	// response (modulo the trailing newline JSON embedding strips).
	syncBodies := make([][]byte, 3)
	for i, rq := range []struct{ path, body string }{
		{"/v1/compile", `{"network": ` + tinyNetJSON + `}`},
		{"/v1/compile", `{"model": "AlexNet"}`},
		{"/v1/schedule", `{"network": ` + tinyNetJSON + `}`},
	} {
		resp := post(t, ts.URL+rq.path, rq.body)
		syncBodies[i] = readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("sync %s: status %d", rq.path, resp.StatusCode)
		}
	}
	for i, e := range js.Entries {
		if e.Status != "ok" {
			t.Fatalf("entry %d: status %q (%s)", i, e.Status, e.Error)
		}
		if e.Key == "" || e.Source == "" {
			t.Errorf("entry %d: missing key/source metadata: %+v", i, e)
		}
		if got := append(append([]byte(nil), e.Result...), '\n'); !bytes.Equal(got, syncBodies[i]) {
			t.Errorf("entry %d: result bytes diverge from the sync endpoint", i)
		}
	}

	// The batch populated the shared cache: the sync requests above must
	// have been hits, not recomputations.
	m := metricsSnapshot(t, ts.URL)
	if m["jobs_accepted"] != 1 || m["jobs_done"] != 1 {
		t.Errorf("jobs_accepted/done = %v/%v, want 1/1", m["jobs_accepted"], m["jobs_done"])
	}
}

func TestBatchCancellation(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	s.scheduleFn = countingScheduleFn(&calls, gate)
	defer close(gate)

	acc := submitBatch(t, ts.URL, `{"entries": [
		{"op": "schedule", "schedule": {"network": `+tinyNetJSON+`}}
	]}`)

	// Wait for the entry to reach its (gated) computation, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if calls.Load() == 0 {
		t.Fatal("entry never started computing")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+acc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}

	js := pollJob(t, ts.URL, acc.ID)
	if js.Status != "canceled" {
		t.Fatalf("job status = %q, want canceled", js.Status)
	}
	if e := js.Entries[0]; e.Status != "canceled" || e.Result != nil {
		t.Errorf("entry = %q with result %q, want canceled and no result", e.Status, e.Result)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["jobs_canceled"] != 1 {
		t.Errorf("jobs_canceled = %v, want 1", m["jobs_canceled"])
	}
}

func TestBatchTableBoundsAndEviction(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{JobCapacity: 2})
	s.scheduleFn = countingScheduleFn(&calls, nil)

	quick := `{"entries": [{"op": "schedule", "schedule": {"network": ` + tinyNetJSON + `}}]}`
	j1 := submitBatch(t, ts.URL, quick)
	pollJob(t, ts.URL, j1.ID)
	j2 := submitBatch(t, ts.URL, quick)
	pollJob(t, ts.URL, j2.ID)

	// Capacity 2 with both jobs finished: the next submit evicts the
	// oldest done job.
	j3 := submitBatch(t, ts.URL, quick)
	pollJob(t, ts.URL, j3.ID)
	if _, code := getJob(t, ts.URL, j1.ID); code != http.StatusNotFound {
		t.Fatalf("evicted job %s: status %d, want 404", j1.ID, code)
	}
	if _, code := getJob(t, ts.URL, j3.ID); code != 200 {
		t.Fatalf("new job %s: status %d, want 200", j3.ID, code)
	}

	// Fill the table with running (gated) jobs: the next submit must be
	// shed with 429 + Retry-After, never by dropping a running job.
	s.scheduleFn = countingScheduleFn(&calls, gate)
	gated := `{"entries": [{"op": "schedule", "schedule": {"model": "AlexNet"}}]}`
	gated2 := `{"entries": [{"op": "schedule", "schedule": {"model": "GoogLeNet"}}]}`
	g1 := submitBatch(t, ts.URL, gated)
	g2 := submitBatch(t, ts.URL, gated2)
	resp := post(t, ts.URL+"/v1/compile-batch", quick)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over a full running table: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(gate)
	pollJob(t, ts.URL, g1.ID)
	pollJob(t, ts.URL, g2.ID)

	m := metricsSnapshot(t, ts.URL)
	if m["jobs_evicted"] < 1 {
		t.Errorf("jobs_evicted = %v, want >= 1", m["jobs_evicted"])
	}
}

func TestBatchChaosFailuresStayPerEntry(t *testing.T) {
	// Panic every 2nd computation: with three distinct entries exactly
	// one computation (the second to start) panics. The job must still
	// finish, with the failure on its entry and the others ok.
	_, ts := newTestServer(t, Config{
		Chaos:   chaos.New(chaos.Config{PanicEvery: 2}),
		Workers: 1, // serialize computations so exactly one is the 2nd
	})
	batch := `{"entries": [
		{"op": "schedule", "schedule": {"network": ` + tinyNetJSON + `}},
		{"op": "schedule", "schedule": {"model": "AlexNet"}},
		{"op": "schedule", "schedule": {"model": "GoogLeNet"}}
	]}`
	acc := submitBatch(t, ts.URL, batch)
	js := pollJob(t, ts.URL, acc.ID)
	if js.Status != "done" {
		t.Fatalf("job status = %q, want done (per-entry failures must not fail the batch)", js.Status)
	}
	var ok, failed int
	for _, e := range js.Entries {
		switch e.Status {
		case "ok":
			ok++
		case "error":
			failed++
			if !strings.Contains(e.Error, "panic") {
				t.Errorf("failed entry error = %q, want the injected panic surfaced", e.Error)
			}
		default:
			t.Errorf("entry %d: unexpected status %q", e.Index, e.Status)
		}
	}
	if ok != 2 || failed != 1 {
		t.Fatalf("ok/failed = %d/%d, want 2/1", ok, failed)
	}
}

// TestBatchDegradedScheduleEntry: a schedule entry rides the same
// degradation ladder as the sync endpoint, and counts at /metrics as the
// same request on /v1/schedule does (TestScheduleBudgetFallbackRung).
func TestBatchDegradedScheduleEntry(t *testing.T) {
	for _, tc := range []struct {
		name, request, reason string
		cfg                   Config
		budgetRejections      int64
	}{
		{"deadline", `"deadline_ms": 5000`, degradedReason, Config{DegradeBudget: 10 * time.Second}, 0},
		{"error-budget", `"options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}`,
			budgetFallbackReason, Config{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			acc := submitBatch(t, ts.URL, `{"entries": [
				{"op": "schedule", "schedule": {"network": `+tinyNetJSON+`, `+tc.request+`}}
			]}`)
			js := pollJob(t, ts.URL, acc.ID)
			if js.Status != "done" || js.Entries[0].Status != "ok" {
				t.Fatalf("job = %+v", js)
			}
			var sr ScheduleResponse
			if err := json.Unmarshal(js.Entries[0].Result, &sr); err != nil {
				t.Fatal(err)
			}
			if !sr.Degraded || sr.DegradedReason != tc.reason {
				t.Errorf("degraded = %v reason = %q, want reason %q", sr.Degraded, sr.DegradedReason, tc.reason)
			}
			doc := metricsDoc(t, ts.URL)
			if got := metricInt(t, doc, "degraded"); got != 1 {
				t.Errorf("degraded = %d, want 1", got)
			}
			if got := metricInt(t, doc, "budget_rejections"); got != tc.budgetRejections {
				t.Errorf("budget_rejections = %d, want %d", got, tc.budgetRejections)
			}
		})
	}
}

// TestBatchEntriesForwardToRingOwner: on a two-node ring, a batch of
// the zoo's schedule and compile entries submitted to one node forwards
// every entry whose key the peer owns, the peer computes exactly those
// keys, and every entry's result is the single-node sync body. Only a
// sharded node encodes an entry's body for forwarding.
func TestBatchEntriesForwardToRingOwner(t *testing.T) {
	ref, refTS := newTestServer(t, Config{})
	ids := []string{"a", "b"}
	lns := make([]net.Listener, len(ids))
	nodes := make([]shard.Node, len(ids))
	for i := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = shard.Node{ID: ids[i], URL: "http://" + ln.Addr().String()}
	}
	servers := make([]*Server, len(ids))
	for i := range ids {
		ring, err := shard.New(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = New(Config{Ring: ring, ShardID: ids[i]})
		go servers[i].Serve(lns[i])
		t.Cleanup(func() { servers[i].Shutdown(context.Background()) })
	}
	submitter, peer := servers[0], servers[1]

	reqs := zooRequests()
	entries := make([]string, len(reqs))
	for i, rq := range reqs {
		op := strings.TrimPrefix(rq.path, "/v1/")
		entries[i] = fmt.Sprintf(`{"op": %q, %q: %s}`, op, op, rq.body)
	}
	spec := BatchEntrySpec{Op: "schedule", Schedule: &ScheduleRequest{Model: "AlexNet"}}
	for _, c := range []struct {
		s       *Server
		wantRaw bool
	}{{ref, false}, {submitter, true}} {
		if e, err := c.s.prepareEntry(spec); err != nil || (e.raw != nil) != c.wantRaw {
			t.Fatalf("prepareEntry on a sharded=%v node: raw %q, err %v", c.wantRaw, e.raw, err)
		}
	}

	acc := submitBatch(t, nodes[0].URL, `{"entries": [`+strings.Join(entries, ",")+`]}`)
	js := pollJob(t, nodes[0].URL, acc.ID)
	if js.Status != "done" || js.Finished != len(reqs) {
		t.Fatalf("job = %q with %d finished, want done/%d", js.Status, js.Finished, len(reqs))
	}
	owned := 0 // entries whose key the peer owns
	for i, e := range js.Entries {
		if e.Status != "ok" {
			t.Fatalf("entry %d: status %q (%s)", i, e.Status, e.Error)
		}
		resp := post(t, refTS.URL+reqs[i].path, reqs[i].body)
		want := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %s %s: status %d", reqs[i].path, reqs[i].body, resp.StatusCode)
		}
		if !bytes.Equal(e.Result, bytes.TrimSuffix(want, []byte("\n"))) {
			t.Errorf("entry %d (%s %s): result differs from the single-node sync body", i, reqs[i].path, reqs[i].body)
		}
		wantSource := "miss"
		if submitter.cfg.Ring.Owner(e.Key).ID == peer.self.ID {
			owned++
			wantSource = "forward"
			if _, ok := peer.cache.Get(e.Key); !ok {
				t.Errorf("entry %d: the peer owns %s but never computed it", i, e.Key)
			}
		}
		if e.Source != wantSource {
			t.Errorf("entry %d: source %q, want %q", i, e.Source, wantSource)
		}
	}
	t.Logf("the peer owns %d of the zoo's %d keys", owned, len(reqs))
	if owned == 0 || owned == len(reqs) {
		t.Fatalf("the peer owns %d of %d keys; the ring must split the zoo for this test", owned, len(reqs))
	}
	sub, pm := metricsSnapshot(t, nodes[0].URL), metricsSnapshot(t, nodes[1].URL)
	if sub["forwards"] < 1 || sub["forwards"] != float64(owned) || sub["forward_fails"] != 0 {
		t.Errorf("submitter forwards = %v (fails %v), want %d", sub["forwards"], sub["forward_fails"], owned)
	}
	if sub["cache_misses"] != float64(len(reqs)-owned) {
		t.Errorf("submitter cache_misses = %v, want the %d keys it owns", sub["cache_misses"], len(reqs)-owned)
	}
	if pm["cache_misses"] != float64(owned) || pm["forwarded_served"] != float64(owned) {
		t.Errorf("peer cache_misses = %v, forwarded_served = %v, want %d each", pm["cache_misses"], pm["forwarded_served"], owned)
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"empty", `{"entries": []}`},
		{"bad op", `{"entries": [{"op": "evaluate"}]}`},
		{"missing body", `{"entries": [{"op": "compile"}]}`},
		{"both bodies", `{"entries": [{"op": "compile", "compile": {"model": "AlexNet"}, "schedule": {"model": "AlexNet"}}]}`},
		{"bad entry model", `{"entries": [{"compile": {"model": "nope"}}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+"/v1/compile-batch", tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
		})
	}

	// Oversized batches are rejected up front.
	var sb strings.Builder
	sb.WriteString(`{"entries": [`)
	for i := 0; i <= maxBatchEntries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"compile": {"model": "AlexNet"}}`)
	}
	sb.WriteString(`]}`)
	resp := post(t, ts.URL+"/v1/compile-batch", sb.String())
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}

	// Unknown job and bad method.
	if _, code := getJob(t, ts.URL, "job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	presp := post(t, ts.URL+"/v1/jobs/job-1", `{}`)
	readBody(t, presp)
	if presp.StatusCode != http.StatusNotFound && presp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to jobs: status %d, want 404/405", presp.StatusCode)
	}
}
