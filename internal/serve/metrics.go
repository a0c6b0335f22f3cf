package serve

// Service metrics, built on expvar types but deliberately not published
// to the process-global expvar registry: a test binary starts many
// servers and expvar.Publish panics on duplicate names. The /metrics
// endpoint serializes an expvar.Map — the standard expvar JSON shape —
// so scrapers written against DebugVars work unchanged.

import (
	"expvar"
	"sort"
	"strconv"
	"sync"
	"time"
)

// latWindow is the sliding window of request latencies the quantile
// estimates are computed over.
const latWindow = 1024

// metrics aggregates the service counters of one server.
type metrics struct {
	Requests      expvar.Int // total requests admitted to API handlers
	Errors        expvar.Int // responses with status >= 400
	CacheHits     expvar.Int // responses served from the plan cache
	CacheBodyHits expvar.Int // cache hits the body index answered, undecoded
	CacheMisses   expvar.Int // responses that ran a computation
	Deduped       expvar.Int // responses that joined an in-flight computation
	InFlight      expvar.Int // currently executing API requests

	// Robustness counters.
	PanicsRecovered  expvar.Int // computation/handler panics converted to 500s
	Shed             expvar.Int // computations rejected by the admission queue
	Degraded         expvar.Int // responses served via the degradation ladder
	BreakerOpenTotal expvar.Int // per-key breaker closed→open transitions
	BreakerFastFails expvar.Int // requests fast-failed by an open breaker

	// Fault-admission counters.
	FaultInjections  expvar.Int // computations whose plan places data at a fault-exposed (non-nominal) operating point
	BudgetRejections expvar.Int // schedule requests degraded to the nominal corner by a per-layer error-budget check

	// Fleet counters.
	StoreHits       expvar.Int // responses served from the persistent plan store
	Forwards        expvar.Int // computations forwarded to their ring owner
	ForwardFails    expvar.Int // forwards that fell back to local computation
	ForwardedServed expvar.Int // requests served because a peer forwarded them here

	// Async job counters.
	JobsAccepted expvar.Int // batch jobs accepted (202)
	JobsDone     expvar.Int // batch jobs run to completion
	JobsCanceled expvar.Int // batch jobs canceled before completion
	JobsEvicted  expvar.Int // finished jobs evicted to bound the table

	// Statuses counts responses per endpoint and status class, with
	// keys like "schedule_2xx" or "healthz_5xx" (expvar.Map.Add is
	// concurrency-safe).
	Statuses expvar.Map

	// Parallelism counts computations per effective layer worker count,
	// how many layers a computation may explore at once (key = the
	// resolved level, e.g. "4"). Only actual computations are counted —
	// cache hits and dedup joins did no search work.
	Parallelism expvar.Map

	mu   sync.Mutex
	lats [latWindow]time.Duration
	n    int // total observations; lats is a ring at n % latWindow
}

// newMetrics returns initialized metrics (expvar.Map needs Init).
func newMetrics() *metrics {
	m := &metrics{}
	m.Statuses.Init()
	m.Parallelism.Init()
	return m
}

// computed records one computation's effective parallelism level.
func (m *metrics) computed(workers int) {
	m.Parallelism.Add(strconv.Itoa(workers), 1)
}

// statusLabels are one endpoint's Statuses keys indexed by status
// class, "schedule_4xx" at 4, built once where the endpoint is routed
// so that counting a response formats nothing.
type statusLabels [10]string

func newStatusLabels(endpoint string) *statusLabels {
	l := new(statusLabels)
	for class := range l {
		l[class] = endpoint + "_" + strconv.Itoa(class) + "xx"
	}
	return l
}

// jobsLabels are the /v1/jobs/{id} endpoint's labels.
var jobsLabels = newStatusLabels("jobs")

// served counts a response served on ladder rung r: either degraded
// rung counts degraded, and the error-budget rung budget_rejections too.
func (m *metrics) served(r rung) {
	if r != rungFull {
		m.Degraded.Add(1)
	}
	if r == rungBudgetFallback {
		m.BudgetRejections.Add(1)
	}
}

// status records one response's endpoint and status class. code is an
// HTTP status, which net/http bounds to three digits.
func (m *metrics) status(l *statusLabels, code int) {
	m.Statuses.Add(l[code/100], 1)
}

// observe records one request latency.
func (m *metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.lats[m.n%latWindow] = d
	m.n++
	m.mu.Unlock()
}

// quantiles returns the p50 and p95 of the window.
func (m *metrics) quantiles() (p50, p95 time.Duration) {
	m.mu.Lock()
	n := m.n
	if n > latWindow {
		n = latWindow
	}
	window := make([]time.Duration, n)
	copy(window, m.lats[:n])
	m.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	// Nearest-rank on the sorted window.
	rank := func(q float64) time.Duration {
		i := int(q * float64(n-1))
		return window[i]
	}
	return rank(0.50), rank(0.95)
}

// expvarMap assembles the expvar view served at /metrics.
func (m *metrics) expvarMap() *expvar.Map {
	em := new(expvar.Map).Init()
	em.Set("requests", &m.Requests)
	em.Set("errors", &m.Errors)
	em.Set("cache_hits", &m.CacheHits)
	em.Set("cache_body_hits", &m.CacheBodyHits)
	em.Set("cache_misses", &m.CacheMisses)
	em.Set("deduped", &m.Deduped)
	em.Set("in_flight", &m.InFlight)
	em.Set("panics_recovered", &m.PanicsRecovered)
	em.Set("shed", &m.Shed)
	em.Set("degraded", &m.Degraded)
	em.Set("breaker_open_total", &m.BreakerOpenTotal)
	em.Set("breaker_fast_fails", &m.BreakerFastFails)
	em.Set("fault_injections", &m.FaultInjections)
	em.Set("budget_rejections", &m.BudgetRejections)
	em.Set("store_hits", &m.StoreHits)
	em.Set("forwards", &m.Forwards)
	em.Set("forward_fails", &m.ForwardFails)
	em.Set("forwarded_served", &m.ForwardedServed)
	em.Set("jobs_accepted", &m.JobsAccepted)
	em.Set("jobs_done", &m.JobsDone)
	em.Set("jobs_canceled", &m.JobsCanceled)
	em.Set("jobs_evicted", &m.JobsEvicted)
	em.Set("statuses", &m.Statuses)
	em.Set("parallelism", &m.Parallelism)
	em.Set("latency_p50_ms", expvar.Func(func() any {
		p50, _ := m.quantiles()
		return float64(p50) / float64(time.Millisecond)
	}))
	em.Set("latency_p95_ms", expvar.Func(func() any {
		_, p95 := m.quantiles()
		return float64(p95) / float64(time.Millisecond)
	}))
	return em
}
