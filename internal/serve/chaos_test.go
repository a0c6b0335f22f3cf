package serve

// The chaos suite: the robustness acceptance tests, written to run
// under `go test -race`. They drive hostile inputs, injected panics,
// saturation and tight deadlines against a real Server and assert the
// survival contract: structured errors, exact-once failure accounting,
// live health endpoints, and recovery.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/serve/chaos"
)

// panickyScheduleFn panics while fail is true, otherwise schedules for
// real.
func panickyScheduleFn(fail *atomic.Bool, calls *atomic.Int64) func(context.Context, models.Network, hw.Config, sched.Options) (*sched.Plan, error) {
	return func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
		if calls != nil {
			calls.Add(1)
		}
		if fail.Load() {
			panic("injected: scheduler bug")
		}
		return sched.ScheduleContext(ctx, net, cfg, opts)
	}
}

func TestPanicBecomesStructured500AndServerSurvives(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	s, ts := newTestServer(t, Config{})
	s.scheduleFn = panickyScheduleFn(&fail, nil)

	resp := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`)
	body := readBody(t, resp)
	if resp.StatusCode != 500 {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("500 body not structured JSON: %s", body)
	}
	if !strings.Contains(e.Error, "panic") {
		t.Errorf("error %q does not mention the panic", e.Error)
	}
	if strings.Contains(e.Error, "goroutine") {
		t.Errorf("error leaks a stack trace: %q", e.Error)
	}

	// The server survived: the same request succeeds once the bug is
	// gone, and the metrics recorded exactly one recovered panic.
	fail.Store(false)
	resp = post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`)
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Fatalf("post-panic request status %d, want 200", resp.StatusCode)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["panics_recovered"] != 1 {
		t.Errorf("panics_recovered = %v, want 1", m["panics_recovered"])
	}
}

func TestConcurrentWaitersObservePanicExactlyOnce(t *testing.T) {
	// N concurrent identical requests join one flight whose computation
	// panics: every waiter sees a 500, the panic is counted once, and
	// the key recovers afterwards.
	const n = 8
	var fail atomic.Bool
	fail.Store(true)
	var calls atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4})
	s.scheduleFn = func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
		calls.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fail.Load() {
			panic("injected: scheduler bug")
		}
		return sched.ScheduleContext(ctx, net, cfg, opts)
	}

	statuses := make([]int, n)
	var admitted, wg sync.WaitGroup
	admitted.Add(n)
	go func() {
		admitted.Wait()
		time.Sleep(10 * time.Millisecond) // let stragglers join the flight
		close(gate)
	}()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, _ := http.NewRequest("POST", ts.URL+"/v1/schedule",
				strings.NewReader(`{"network": `+tinyNetJSON+`}`))
			req.Header.Set("Content-Type", "application/json")
			admitted.Done()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != 500 {
			t.Errorf("waiter %d: status %d, want 500", i, st)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("computation ran %d times for %d waiters, want 1", got, n)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["panics_recovered"] != 1 {
		t.Errorf("panics_recovered = %v, want exactly 1 for %d waiters", m["panics_recovered"], n)
	}

	// The poisoned key recovers: with the bug gone, the same request
	// computes fresh and succeeds (nothing bad was cached).
	fail.Store(false)
	resp := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`)
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Fatalf("post-recovery status %d, want 200", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Rana-Cache"); src != "miss" {
		t.Errorf("post-recovery source %q, want a fresh miss", src)
	}
}

func TestSaturationSheds429AndHealthzStaysLive(t *testing.T) {
	// One worker, no waiting room: while a slow computation holds the
	// only slot, a second distinct computation is shed with 429 +
	// Retry-After — and /healthz and /metrics answer throughout.
	gate := make(chan struct{})
	started := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, RetryAfter: 3 * time.Second})
	var once sync.Once
	s.scheduleFn = func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
		once.Do(func() { close(started) })
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return sched.ScheduleContext(ctx, net, cfg, opts)
	}

	slowDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json",
			strings.NewReader(`{"network": `+tinyNetJSON+`}`))
		if err != nil {
			t.Error(err)
			slowDone <- nil
			return
		}
		slowDone <- resp
	}()
	<-started // the slow computation now holds the only admission token

	resp := post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet"}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q", ra, "3")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "saturated") {
		t.Errorf("shed body %s (%v)", body, err)
	}

	// Health and metrics bypass admission entirely.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, hresp)
	if hresp.StatusCode != 200 {
		t.Errorf("healthz under saturation = %d, want 200", hresp.StatusCode)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["shed"] != 1 {
		t.Errorf("shed = %v, want 1", m["shed"])
	}

	// Release the slow computation; it must complete untouched.
	close(gate)
	if resp := <-slowDone; resp != nil {
		readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Errorf("slow request status %d, want 200", resp.StatusCode)
		}
	}
}

func TestDeadlineDegradesSchedule(t *testing.T) {
	_, ts := newTestServer(t, Config{DegradeBudget: 200 * time.Millisecond})

	// A deadline below the degrade budget: valid schedule, marked
	// degraded, with a stable reason.
	resp := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`, "deadline_ms": 50}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded || sr.DegradedReason == "" {
		t.Fatalf("degraded = %v, reason = %q; want a marked degraded response", sr.Degraded, sr.DegradedReason)
	}
	if len(sr.Plan.Layers) != 2 {
		t.Errorf("degraded plan has %d layers, want a full valid schedule of 2", len(sr.Plan.Layers))
	}

	// Byte-identical on the repeat (the degraded reason must be stable).
	resp2 := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`, "deadline_ms": 50}`)
	body2 := readBody(t, resp2)
	if resp2.Header.Get("X-Rana-Cache") != "hit" {
		t.Errorf("repeat degraded request source %q, want hit", resp2.Header.Get("X-Rana-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("degraded cache hit differs from the miss")
	}

	// The same request without a deadline takes the full-search path and
	// must not collide with the degraded cache entry.
	resp3 := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`)
	body3 := readBody(t, resp3)
	if resp3.StatusCode != 200 {
		t.Fatalf("full request status %d", resp3.StatusCode)
	}
	var full ScheduleResponse
	if err := json.Unmarshal(body3, &full); err != nil {
		t.Fatal(err)
	}
	if full.Degraded {
		t.Error("full-search response marked degraded: degraded cache key leaked")
	}
	if resp3.Header.Get("X-Rana-Cache") != "miss" {
		t.Errorf("full request source %q, want its own miss", resp3.Header.Get("X-Rana-Cache"))
	}

	// A roomy deadline does not degrade.
	resp4 := post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet", "deadline_ms": 30000}`)
	body4 := readBody(t, resp4)
	if resp4.StatusCode != 200 {
		t.Fatalf("roomy-deadline status %d: %s", resp4.StatusCode, body4)
	}
	var roomy ScheduleResponse
	if err := json.Unmarshal(body4, &roomy); err != nil {
		t.Fatal(err)
	}
	if roomy.Degraded {
		t.Error("30s deadline degraded")
	}

	m := metricsSnapshot(t, ts.URL)
	if m["degraded"] != 2 {
		t.Errorf("degraded = %v, want 2", m["degraded"])
	}
}

func TestBreakerOpensFastFailsAndRecovers(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{BreakerThreshold: 2, BreakerBackoff: 50 * time.Millisecond})
	s.scheduleFn = panickyScheduleFn(&fail, &calls)

	body := `{"network": ` + tinyNetJSON + `}`
	// Two consecutive panics trip the breaker.
	for i := 0; i < 2; i++ {
		resp := post(t, ts.URL+"/v1/schedule", body)
		readBody(t, resp)
		if resp.StatusCode != 500 {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// Open: the next request fast-fails without running the computation.
	resp := post(t, ts.URL+"/v1/schedule", body)
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open status %d, want 503: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker-open response has no Retry-After")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("computation ran %d times, want 2 (fast-fail must not execute)", got)
	}
	// Other keys are unaffected: the breaker is per-key.
	other := post(t, ts.URL+"/v1/evaluate", `{"design": "RANA*(E-5)", "model": "AlexNet"}`)
	readBody(t, other)
	if other.StatusCode != 200 {
		t.Errorf("unrelated key under open breaker: status %d, want 200", other.StatusCode)
	}

	m := metricsSnapshot(t, ts.URL)
	if m["breaker_open_total"] != 1 {
		t.Errorf("breaker_open_total = %v, want 1", m["breaker_open_total"])
	}
	if m["breaker_fast_fails"] != 1 {
		t.Errorf("breaker_fast_fails = %v, want 1", m["breaker_fast_fails"])
	}

	// After the backoff the breaker half-opens; a successful probe
	// closes it and the key serves normally again.
	fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := post(t, ts.URL+"/v1/schedule", body)
		readBody(t, resp)
		if resp.StatusCode == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered; last status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp = post(t, ts.URL+"/v1/schedule", body)
	readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Errorf("post-recovery status %d, want 200", resp.StatusCode)
	}
}

// TestBreakerOpensOnRepeatedTimeouts times out one key again and again
// under a two-timeout breaker: the flight ends with the last leaver's
// cause, so two 504s open the key and the next three requests fast-fail
// with 503 + Retry-After without computing. A client that disconnects
// instead (context.Canceled) stays neutral: every post computes and
// nothing opens.
func TestBreakerOpensOnRepeatedTimeouts(t *testing.T) {
	const body = `{"model": "AlexNet"}`
	hang := func(calls *atomic.Int64, entered chan<- struct{}) func(context.Context, models.Network, hw.Config, sched.Options) (*sched.Plan, error) {
		return func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
			calls.Add(1)
			if entered != nil {
				entered <- struct{}{}
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	t.Run("timeout", func(t *testing.T) {
		s, ts := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond, BreakerThreshold: 2})
		var calls atomic.Int64
		s.scheduleFn = hang(&calls, nil)
		for i, want := range []int{504, 504, 503, 503, 503} {
			resp := post(t, ts.URL+"/v1/schedule", body)
			b := readBody(t, resp)
			if resp.StatusCode != want {
				t.Fatalf("post %d: status %d, want %d: %s", i, resp.StatusCode, want, b)
			}
			if want == 503 && resp.Header.Get("Retry-After") == "" {
				t.Errorf("post %d: breaker-open response has no Retry-After", i)
			}
		}
		if got := calls.Load(); got != 2 {
			t.Errorf("computation ran %d times, want 2", got)
		}
		m := metricsSnapshot(t, ts.URL)
		if m["breaker_open_total"] != 1 || m["breaker_fast_fails"] != 3 {
			t.Errorf("breaker_open_total %v, breaker_fast_fails %v, want 1 and 3", m["breaker_open_total"], m["breaker_fast_fails"])
		}
	})
	t.Run("disconnect", func(t *testing.T) {
		s := New(Config{BreakerThreshold: 2})
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		var calls atomic.Int64
		entered := make(chan struct{})
		s.scheduleFn = hang(&calls, entered)
		h := s.Handler()
		for i := 0; i < 5; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			r := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)).WithContext(ctx)
			w := httptest.NewRecorder()
			served := make(chan struct{})
			go func() {
				defer close(served)
				h.ServeHTTP(w, r)
			}()
			<-entered
			cancel()
			<-served
			if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "" {
				t.Fatalf("post %d: status %d, Retry-After %q, want a plain 503", i, w.Code, w.Header().Get("Retry-After"))
			}
		}
		if got := calls.Load(); got != 5 {
			t.Errorf("computation ran %d times, want 5", got)
		}
		if open, fast := s.m.BreakerOpenTotal.Value(), s.m.BreakerFastFails.Value(); open != 0 || fast != 0 {
			t.Errorf("breaker_open_total %d, breaker_fast_fails %d, want 0 and 0", open, fast)
		}
	})
}

func TestChaosInjectorEndToEnd(t *testing.T) {
	// Wire a deterministic injector into the server: every 2nd
	// computation panics, every 3rd eats ~5ms latency. Fire distinct
	// requests and check the failure pattern matches the schedule and
	// the server keeps serving.
	inj := chaos.New(chaos.Config{Seed: 7, PanicEvery: 2, LatencyEvery: 3, Latency: 5 * time.Millisecond})
	_, ts := newTestServer(t, Config{Chaos: inj, BreakerThreshold: -1})

	got500 := 0
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"network": {"name": "net%d", "layers": [
			{"name": "l0", "n": 2, "h": 8, "l": 8, "m": %d, "k": 3, "s": 1, "p": 1}
		]}}`, i, 2+i)
		resp := post(t, ts.URL+"/v1/schedule", body)
		readBody(t, resp)
		switch resp.StatusCode {
		case 200:
		case 500:
			got500++
		default:
			t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if got500 != 3 {
		t.Errorf("got %d injected 500s across 6 computations with PanicEvery=2, want 3", got500)
	}
	stats := inj.Stats()
	if stats.Computations != 6 || stats.Panics != 3 || stats.Latencies != 2 {
		t.Errorf("injector stats = %+v", stats)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["panics_recovered"] != 3 {
		t.Errorf("panics_recovered = %v, want 3", m["panics_recovered"])
	}
}

func TestRetryClientRidesThroughSaturation(t *testing.T) {
	// A saturated server sheds the first attempt; the RetryClient backs
	// off and lands the request once the slot frees.
	gate := make(chan struct{})
	started := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, RetryAfter: time.Second})
	var once sync.Once
	s.scheduleFn = func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
		once.Do(func() { close(started) })
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return sched.ScheduleContext(ctx, net, cfg, opts)
	}
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json",
			strings.NewReader(`{"network": `+tinyNetJSON+`}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(gate)
	}()

	rc := &RetryClient{MaxAttempts: 6, BaseBackoff: 50 * time.Millisecond, Budget: 20 * time.Second, Seed: 3}
	body, status, err := rc.PostJSON(context.Background(), ts.URL+"/v1/schedule", []byte(`{"model": "AlexNet"}`))
	if err != nil {
		t.Fatal(err)
	}
	if status != 200 {
		t.Fatalf("final status %d: %s", status, body)
	}
	<-slowDone
	m := metricsSnapshot(t, ts.URL)
	if m["shed"] < 1 {
		t.Errorf("shed = %v, want at least one shed before the retry landed", m["shed"])
	}
}

// metricsSnapshot fetches and decodes /metrics.
func metricsSnapshot(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return decodeMetrics(t, readBody(t, resp))
}
