package serve

// Race-focused tests of the cache/singleflight machinery, written to be
// meaningful under `go test -race`: concurrent identical requests must
// run exactly one underlying schedule and return byte-identical bodies;
// concurrent distinct requests must not serialize onto one flight; the
// metrics must balance.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched"
)

// countingScheduleFn wraps the real scheduler with an execution counter
// and an optional entry gate that makes the computation slow enough for
// all concurrent requests to pile onto one flight.
func countingScheduleFn(calls *atomic.Int64, gate chan struct{}) func(context.Context, models.Network, hw.Config, sched.Options) (*sched.Plan, error) {
	return func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
		calls.Add(1)
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return sched.ScheduleContext(ctx, net, cfg, opts)
	}
}

func TestConcurrentIdenticalRequestsRunOneSchedule(t *testing.T) {
	const n = 32
	var calls atomic.Int64
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4})
	s.scheduleFn = countingScheduleFn(&calls, gate)

	// N identical requests in flight at once. The gate holds the single
	// computation open until all requests have been admitted, so every
	// one of them must resolve through the same flight.
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var admitted sync.WaitGroup
	admitted.Add(n)
	go func() {
		admitted.Wait()
		// All requests sent; let the one computation proceed shortly
		// after, giving stragglers time to join the flight.
		time.Sleep(10 * time.Millisecond)
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
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Exactly one underlying schedule execution.
	if got := calls.Load(); got != 1 {
		t.Errorf("schedule executed %d times for %d identical requests, want 1", got, n)
	}
	// Byte-identical bodies across all requests.
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	// And a later request — now a pure cache hit — returns those same
	// bytes.
	resp := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`)
	late := readBody(t, resp)
	if resp.Header.Get("X-Rana-Cache") != "hit" {
		t.Errorf("late request source = %q, want hit", resp.Header.Get("X-Rana-Cache"))
	}
	if !bytes.Equal(bodies[0], late) {
		t.Error("cached body differs from computed body")
	}

	// Metrics must balance: one miss, everything else a hit or deduped.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeMetrics(t, readBody(t, mresp))
	if m["cache_misses"] != 1 {
		t.Errorf("cache_misses = %v, want 1", m["cache_misses"])
	}
	if m["cache_hits"]+m["deduped"] != n {
		t.Errorf("hits %v + deduped %v != %d", m["cache_hits"], m["deduped"], n)
	}
	if m["requests"] != n+1 {
		t.Errorf("requests = %v, want %d", m["requests"], n+1)
	}
	if m["errors"] != 0 {
		t.Errorf("errors = %v, want 0", m["errors"])
	}
}

func TestConcurrentDistinctRequests(t *testing.T) {
	// Distinct requests must each run their own computation (no false
	// dedup) while still being admitted concurrently.
	const n = 8
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 4})
	s.scheduleFn = countingScheduleFn(&calls, nil)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Vary the kernel count so every request hashes differently.
			body := fmt.Sprintf(`{"network": {"name": "net%d", "layers": [
				{"name": "l0", "n": 2, "h": 8, "l": 8, "m": %d, "k": 3, "s": 1, "p": 1}
			]}}`, i, 2+i)
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != n {
		t.Errorf("schedule executed %d times for %d distinct requests, want %d", got, n, n)
	}
	if got := s.cache.Len(); got != n {
		t.Errorf("cache holds %d entries, want %d", got, n)
	}
}

func TestFlightGroupSharesOneExecution(t *testing.T) {
	g := newFlightGroup(context.Background())
	var execs atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				execs.Add(1)
				<-release
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = body
		}(i)
	}
	// Let every goroutine reach Do before releasing the computation.
	for {
		g.mu.Lock()
		f := g.flights["k"]
		refs := 0
		if f != nil {
			refs = f.refs
		}
		g.mu.Unlock()
		if refs == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Errorf("executed %d times, want 1", got)
	}
	for i, r := range results {
		if string(r) != "result" {
			t.Errorf("waiter %d got %q", i, r)
		}
	}
}

func TestFlightCanceledWhenAllWaitersLeave(t *testing.T) {
	g := newFlightGroup(context.Background())
	computeCanceled := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-fctx.Done()
			close(computeCanceled)
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel() // the only waiter leaves
	select {
	case <-computeCanceled:
	case <-time.After(2 * time.Second):
		t.Fatal("computation not canceled after all waiters left")
	}
	if err := <-done; err != context.Canceled {
		t.Errorf("waiter error = %v, want context.Canceled", err)
	}
}

func TestFlightSurvivesOneImpatientWaiter(t *testing.T) {
	g := newFlightGroup(context.Background())
	release := make(chan struct{})
	impatient, cancelImpatient := context.WithCancel(context.Background())

	patientDone := make(chan string, 1)
	started := make(chan struct{})
	go func() {
		body, _, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
			close(started)
			select {
			case <-release:
				return []byte("ok"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		if err != nil {
			patientDone <- "err:" + err.Error()
			return
		}
		patientDone <- string(body)
	}()
	<-started

	impatientDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(impatient, "k", func(ctx context.Context) ([]byte, error) {
			panic("second execution")
		})
		impatientDone <- err
	}()
	// Wait until the impatient waiter has joined the flight.
	for {
		g.mu.Lock()
		f := g.flights["k"]
		refs := 0
		if f != nil {
			refs = f.refs
		}
		g.mu.Unlock()
		if refs == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancelImpatient()
	if err := <-impatientDone; err != context.Canceled {
		t.Fatalf("impatient waiter error = %v, want context.Canceled", err)
	}
	close(release)
	if got := <-patientDone; got != "ok" {
		t.Errorf("patient waiter got %q; one impatient client poisoned the flight", got)
	}
}

// awaitRefs waits until key's flight counts n interested waiters.
func awaitRefs(t *testing.T, g *flightGroup, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		refs := -1
		if f := g.flights[key]; f != nil {
			refs = f.refs
		}
		g.mu.Unlock()
		if refs == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %q holds %d waiters, want %d", key, refs, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightLeaderComputesForJoiners cancels the leader's context while
// a joiner waits, for a computation that waits on Done and for one that
// polls Err: the leader's leaving drops its reference, the computation
// runs once and is never canceled, the joiner gets the body, and the
// leader answers with its context's error only once the flight ends.
func TestFlightLeaderComputesForJoiners(t *testing.T) {
	for _, c := range []struct {
		name  string
		await func(ctx context.Context, release chan struct{}) error
	}{
		{"done", func(ctx context.Context, release chan struct{}) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}},
		{"err", func(ctx context.Context, release chan struct{}) error {
			for {
				select {
				case <-release:
					return ctx.Err()
				default:
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				time.Sleep(100 * time.Microsecond)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := newFlightGroup(context.Background())
			leaderCtx, cancelLeader := context.WithCancel(context.Background())
			defer cancelLeader()
			started, release := make(chan struct{}), make(chan struct{})
			var execs atomic.Int64
			computeErr := make(chan error, 1)
			leaderDone := make(chan error, 1)
			go func() {
				_, shared, err := g.Do(leaderCtx, "k", func(ctx context.Context) ([]byte, error) {
					execs.Add(1)
					close(started)
					err := c.await(ctx, release)
					computeErr <- err
					if err != nil {
						return nil, err
					}
					return []byte("ok"), nil
				})
				if shared {
					t.Error("the leader reports a shared flight")
				}
				select {
				case <-release:
				default:
					t.Errorf("the leader answered %v before the flight ended", err)
				}
				leaderDone <- err
			}()
			<-started
			joinerDone := make(chan string, 1)
			go func() {
				body, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
					panic("second execution")
				})
				if !shared {
					t.Error("the joiner reports an unshared flight")
				}
				if err != nil {
					joinerDone <- "err:" + err.Error()
					return
				}
				joinerDone <- string(body)
			}()
			awaitRefs(t, g, "k", 2)
			cancelLeader()
			awaitRefs(t, g, "k", 1) // the leader's leaving is noted
			close(release)
			if got := <-joinerDone; got != "ok" {
				t.Errorf("joiner got %q, want the body", got)
			}
			if err := <-computeErr; err != nil {
				t.Errorf("the computation saw its context end: %v", err)
			}
			if err := <-leaderDone; err != context.Canceled {
				t.Errorf("leader error = %v, want context.Canceled", err)
			}
			if got := execs.Load(); got != 1 {
				t.Errorf("executed %d times, want 1", got)
			}
		})
	}
}

// TestFlightLoneLeaderCanceledAtNextErr is TestFlightCanceledWhenAllWaitersLeave
// for a computation that only polls Err, as the scheduler does at each
// layer: with no joiner, the leader's leaving cancels the computation
// the next time it asks, with the leader's cause.
func TestFlightLoneLeaderCanceledAtNextErr(t *testing.T) {
	g := newFlightGroup(context.Background())
	var outcome error
	g.onDone = func(_ string, err error) { outcome = err }
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
		for fctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		return nil, fctx.Err()
	})
	if err != context.DeadlineExceeded {
		t.Errorf("leader error = %v, want context.DeadlineExceeded", err)
	}
	if outcome != context.DeadlineExceeded {
		t.Errorf("flight outcome = %v, want the leader's cause, context.DeadlineExceeded", outcome)
	}
}

// TestFlightLeaderPanicReachesEveryWaiter panics in the leader's fn
// while joiners wait: the leader and each joiner get the one
// *panicError, and the flight reports it once. Through a server the
// flight's frame recovers it, so guard never sees it: panics_recovered
// rises by exactly 1 and only the computation's recovery is logged.
func TestFlightLeaderPanicReachesEveryWaiter(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		const joiners = 4
		g := newFlightGroup(context.Background())
		var outcomes atomic.Int64
		g.onDone = func(string, error) { outcomes.Add(1) }
		started, release := make(chan struct{}), make(chan struct{})
		errs := make([]error, joiners+1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[0] = g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				close(started)
				<-release
				panic("injected: leader bug")
			})
		}()
		<-started
		for i := 1; i <= joiners; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, errs[i] = g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
					panic("second execution")
				})
			}(i)
		}
		awaitRefs(t, g, "k", joiners+1)
		close(release)
		wg.Wait()
		var first *panicError
		for i, err := range errs {
			var pe *panicError
			if !errors.As(err, &pe) {
				t.Fatalf("waiter %d: error %v, want a *panicError", i, err)
			}
			if first == nil {
				first = pe
			} else if pe != first {
				t.Errorf("waiter %d got a different panicError than the leader", i)
			}
		}
		if first.val != "injected: leader bug" {
			t.Errorf("panic value %v", first.val)
		}
		if got := outcomes.Load(); got != 1 {
			t.Errorf("onDone ran %d times, want 1", got)
		}
	})
	t.Run("server", func(t *testing.T) {
		const n = 3
		var logMu sync.Mutex
		var logs []string
		s, ts := newTestServer(t, Config{Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}})
		var calls atomic.Int64
		started, gate := make(chan struct{}, 1), make(chan struct{})
		s.scheduleFn = func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
			calls.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			<-gate
			panic("injected: scheduler bug")
		}
		var wg sync.WaitGroup
		statuses := make([]int, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json",
					strings.NewReader(`{"network": `+tinyNetJSON+`}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				statuses[i] = resp.StatusCode
			}(i)
		}
		<-started
		var key string
		s.flights.mu.Lock()
		for k := range s.flights.flights {
			key = k
		}
		s.flights.mu.Unlock()
		awaitRefs(t, s.flights, key, n)
		close(gate)
		wg.Wait()
		for i, st := range statuses {
			if st != http.StatusInternalServerError {
				t.Errorf("request %d: status %d, want 500", i, st)
			}
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("computation ran %d times, want 1", got)
		}
		if got := s.m.PanicsRecovered.Value(); got != 1 {
			t.Errorf("panics_recovered = %d, want 1", got)
		}
		logMu.Lock()
		defer logMu.Unlock()
		var computation int
		for _, l := range logs {
			if strings.Contains(l, "recovered handler panic") {
				t.Errorf("guard recovered the flight's panic: %s", l)
			}
			if strings.Contains(l, "recovered computation panic") {
				computation++
			}
		}
		if computation != 1 {
			t.Errorf("%d computation panics logged, want 1", computation)
		}
	})
}

// TestIdenticalRequestAfterFlightEndsIsAHit parks a request between its
// cache miss and the flight group while a second request for the same
// body runs the key's flight to completion. The flight cached its body
// before it left the group, so the parked request, leading a new
// flight, finds it there: one execution, answered as a hit.
func TestIdenticalRequestAfterFlightEndsIsAHit(t *testing.T) {
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{})
	s.scheduleFn = countingScheduleFn(&calls, nil)
	parked, resume := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	s.beforeFlight = func(string) {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-resume
		}
	}
	body := `{"network": ` + tinyNetJSON + `}`
	type result struct {
		source string
		body   []byte
		err    error
	}
	parkedDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			parkedDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			parkedDone <- result{err: fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())}
			return
		}
		parkedDone <- result{source: resp.Header.Get("X-Rana-Cache"), body: buf.Bytes()}
	}()
	<-parked
	resp := post(t, ts.URL+"/v1/schedule", body)
	computed := readBody(t, resp)
	if src := resp.Header.Get("X-Rana-Cache"); resp.StatusCode != http.StatusOK || src != "miss" {
		t.Fatalf("second request: status %d, X-Rana-Cache %q, want a 200 miss", resp.StatusCode, src)
	}
	close(resume)
	r := <-parkedDone
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.source != "hit" {
		t.Errorf("parked request: X-Rana-Cache %q, want hit", r.source)
	}
	if !bytes.Equal(r.body, computed) {
		t.Error("parked request's body differs from the computed one")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("schedule executed %d times, want 1", got)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["cache_misses"] != 1 || m["cache_hits"] != 1 {
		t.Errorf("cache_misses %v, cache_hits %v, want 1 and 1", m["cache_misses"], m["cache_hits"])
	}
}

func TestShutdownDrainsInFlightRequests(t *testing.T) {
	// A request admitted before Shutdown must complete; Shutdown must
	// not return until it has. This test runs the server's own Serve
	// loop (not httptest) so Shutdown drains the real listener.
	var calls atomic.Int64
	gate := make(chan struct{})
	s := New(Config{})
	s.scheduleFn = countingScheduleFn(&calls, gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	bodyc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/schedule", "application/json",
			strings.NewReader(`{"network": `+tinyNetJSON+`}`))
		if err != nil {
			errc <- err
			return
		}
		bodyc <- resp
	}()
	// Wait for the request to be in flight.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Shutdown is now draining; the in-flight request is still blocked
	// on the gate. Release it and everything must unwind cleanly.
	time.Sleep(10 * time.Millisecond)
	close(gate)

	select {
	case err := <-errc:
		t.Fatalf("in-flight request failed during drain: %v", err)
	case resp := <-bodyc:
		body := readBody(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("in-flight request status %d during drain: %s", resp.StatusCode, body)
		}
		var sr ScheduleResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("drained response not valid JSON: %v", err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown error: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
