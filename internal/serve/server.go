// Package serve is the ranad serving subsystem: a concurrent HTTP/JSON
// front end over the RANA compilation pipeline. Offline per-network
// characterization (Stage 1+2 of Fig. 6) is an artifact a fleet of
// accelerators shares, so the service is built around reuse: a
// canonical request hash feeds an LRU plan cache with singleflight
// dedup, a bounded worker pool caps concurrent schedule explorations,
// cancellation flows from the HTTP layer down into the per-layer
// scheduling loop, and shutdown drains in-flight work before returning.
//
// Endpoints:
//
//	POST /v1/schedule  Stage-2 schedule under explicit options
//	POST /v1/compile   full three-stage compilation
//	POST /v1/evaluate  one Table IV design point on one network
//	GET  /v1/catalog   served models, accelerators and designs
//	GET  /healthz      liveness
//	GET  /metrics      expvar counters + latency quantiles
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"rana/internal/core"
	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/serve/chaos"
	"rana/internal/serve/shard"
	"rana/internal/serve/store"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address, e.g. ":8080". Used by ListenAndServe;
	// Serve takes an explicit listener.
	Addr string

	// Workers bounds concurrently executing schedule computations.
	// Defaults to GOMAXPROCS. Requests beyond the bound queue until a
	// slot frees or their timeout expires.
	Workers int

	// CacheEntries is the LRU plan cache capacity. Defaults to 256;
	// negative disables caching.
	CacheEntries int

	// RequestTimeout bounds one request end to end, including queueing
	// for a worker slot. Defaults to 60 s.
	RequestTimeout time.Duration

	// QueueDepth bounds computations waiting for a worker slot beyond
	// the Workers already executing; a computation arriving past that is
	// shed with 429 + Retry-After instead of queueing. Defaults to
	// 4×Workers; negative means no waiting room at all.
	QueueDepth int

	// RetryAfter is the Retry-After hint on shed responses. Defaults
	// to 1 s.
	RetryAfter time.Duration

	// BreakerThreshold is the consecutive panic/timeout count that
	// opens a key's circuit breaker. Defaults to 3; negative disables
	// the breaker.
	BreakerThreshold int

	// BreakerBackoff is the first open window; it doubles per re-open.
	// Defaults to 1 s.
	BreakerBackoff time.Duration

	// DegradeBudget is the degradation-ladder threshold: a /v1/schedule
	// request with an explicit deadline below it gets a cheap uniform
	// fallback schedule marked "degraded" instead of the full hybrid
	// search. Defaults to 200 ms; negative disables degradation.
	DegradeBudget time.Duration

	// BeamBudget is the ladder's middle rung: a /v1/schedule request
	// whose deadline clears DegradeBudget but falls below BeamBudget —
	// and does not pin a "search" strategy itself — is explored with the
	// budgeted beam strategy instead of the full branch-and-bound.
	// Defaults to 1 s; negative disables the rung.
	BeamBudget time.Duration

	// Parallelism is the default per-layer search worker count applied
	// to computations whose request does not pin one. Zero selects
	// GOMAXPROCS (search.EffectiveParallelism). Plans are byte-identical
	// at every level, so this is a throughput knob only — it is excluded
	// from cache keys, and requests differing only in parallelism share
	// cache entries.
	Parallelism int

	// MemoEntries bounds the server-wide layer-shape memo shared across
	// every schedule and compile computation (sched.Memo), counted in
	// frontier records (memo_records at /metrics), not in entries: one
	// entry per layer shape serves every refresh interval at or above
	// the one it was built at, and holds as many records as that needs.
	// Zero selects sched.DefaultMemoCapacity; negative disables the
	// shared memo. A full memo records no new shape, but either way each
	// compile still explores a shape it repeats only once (the
	// scheduler's in-compile dedup), and memo_hits counts those repeats.
	MemoEntries int

	// Chaos, when non-nil, injects faults into the computation path
	// (latency, stalls, cancellations, panics). Test/selfcheck only.
	Chaos *chaos.Injector

	// Store, when non-nil, is the persistent plan store. On construction
	// the server replays it into the LRU (warm restart); at runtime it is
	// a read-through/write-behind layer under the LRU, so every computed
	// plan survives a restart. The server does not Close it — the owner
	// (cmd/rana-serve) does, after Shutdown.
	Store *store.Store

	// Ring, when non-nil, makes this server one shard of a fleet: keys
	// whose ring owner is another node are forwarded there instead of
	// computed locally. ShardID must name this node's ring membership.
	Ring    *shard.Ring
	ShardID string

	// ForwardClient posts forwarded requests to peer nodes. Defaults to
	// a RetryClient with a short budget so a dead peer degrades into
	// local computation quickly. The server stamps its forwarding marker
	// header onto it.
	ForwardClient *RetryClient

	// JobCapacity bounds the async batch job table. Defaults to 64;
	// negative disables the batch API.
	JobCapacity int

	// AllowedBackends, when non-empty, restricts the memory-backend axis
	// to the listed registry names: a request naming any other backend is
	// rejected at admission with a 400. An omitted "backend" field — the
	// configuration's default technology adapter — is always admitted, so
	// the allowlist can only narrow the matrix, never break legacy
	// clients. Empty allows every registered backend.
	AllowedBackends []string

	// Logf receives request logs; nil discards them.
	Logf func(format string, args ...any)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = time.Second
	}
	if c.DegradeBudget == 0 {
		c.DegradeBudget = 200 * time.Millisecond
	}
	if c.BeamBudget == 0 {
		c.BeamBudget = time.Second
	}
	if c.JobCapacity == 0 {
		c.JobCapacity = 64
	}
	if c.JobCapacity < 0 {
		c.JobCapacity = 0
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is one ranad instance.
type Server struct {
	cfg     Config
	cache   *lru
	flights *flightGroup
	m       *metrics
	vars    fmt.Stringer  // the /metrics document
	sem     chan struct{} // worker slots: computations executing
	queue   chan struct{} // admission tokens: executing + waiting
	breaker *breaker      // nil when disabled

	baseCtx context.Context // canceled when Shutdown begins
	stop    context.CancelFunc

	httpSrv *http.Server

	// memo is the server-wide layer-shape exploration memo, shared by
	// every schedule and compile computation; nil when disabled.
	memo *sched.Memo

	// jobs is the async batch job table; nil when the batch API is
	// disabled (JobCapacity < 0).
	jobs *jobTable

	// allowedBackends is the admission set built from
	// Config.AllowedBackends; nil admits every registered backend.
	allowedBackends map[string]bool

	// self is this node's ring membership; zero when not sharded.
	self shard.Node

	// Computation seams, overridable in tests to count executions or
	// inject failures. Defaults are the real pipeline entry points.
	scheduleFn func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error)
	compileFn  func(ctx context.Context, net models.Network, strategy search.Strategy, parallelism int) (*core.Output, error)

	// plans recycles the plans /v1/schedule compiles into: a plan lives
	// only until its body is encoded, and sched.ExploreNetworkInto reuses
	// a plan's layer storage. The default scheduleFn leases from it; the
	// schedule computation returns every plan it encoded. It is the
	// server's own, so a plan a replaced seam returns is never leased.
	plans sync.Pool
}

// schedulePooled is the default scheduleFn: sched.ExploreNetworkInto
// into a plan leased from s.plans.
func (s *Server) schedulePooled(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
	p := s.plans.Get().(*sched.Plan)
	if _, err := sched.ExploreNetworkInto(ctx, net, cfg, opts, p); err != nil {
		s.plans.Put(p)
		return nil, err
	}
	return p, nil
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   newLRU(cfg.CacheEntries),
		flights: newFlightGroup(base),
		m:       newMetrics(),
		sem:     make(chan struct{}, cfg.Workers),
		queue:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		baseCtx: base,
		stop:    stop,
	}
	if cfg.MemoEntries >= 0 {
		s.memo = sched.NewMemo(cfg.MemoEntries)
	}
	s.plans.New = func() any { return new(sched.Plan) }
	s.scheduleFn = s.schedulePooled
	s.compileFn = func(ctx context.Context, net models.Network, strategy search.Strategy, parallelism int) (*core.Output, error) {
		f := core.New()
		f.Search = strategy
		f.Parallelism = parallelism
		f.Memo = s.memo
		return f.CompileContext(ctx, net)
	}
	if cfg.BreakerThreshold > 0 {
		s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerBackoff,
			func() { s.m.BreakerOpenTotal.Add(1) })
	}
	s.flights.onDone = s.computationDone
	if cfg.JobCapacity > 0 {
		s.jobs = newJobTable(cfg.JobCapacity)
	}
	if len(cfg.AllowedBackends) > 0 {
		s.allowedBackends = make(map[string]bool, len(cfg.AllowedBackends))
		for _, name := range cfg.AllowedBackends {
			s.allowedBackends[name] = true
		}
	}
	if cfg.Ring != nil {
		// A ring without a resolvable self is a programmer error (the CLI
		// validates -shard-id against -peers before constructing one).
		self, ok := cfg.Ring.Node(cfg.ShardID)
		if !ok {
			panic(fmt.Sprintf("serve: ShardID %q is not a member of the ring", cfg.ShardID))
		}
		s.self = self
		if s.cfg.ForwardClient == nil {
			s.cfg.ForwardClient = &RetryClient{MaxAttempts: 2, Budget: 10 * time.Second}
		}
		if s.cfg.ForwardClient.Header == nil {
			s.cfg.ForwardClient.Header = http.Header{}
		}
		s.cfg.ForwardClient.Header.Set(ForwardedHeader, cfg.ShardID)
	}
	if cfg.Store != nil {
		// Warm restart: replay every persisted plan into the LRU so the
		// first request after a restart is a cache hit, not a recompile.
		// Range yields oldest first, so when the store holds more entries
		// than the LRU the newest plans win the cache slots (the rest stay
		// reachable via the read-through path).
		n := 0
		if err := cfg.Store.Range(func(key string, body []byte) error {
			s.cache.Add(key, body)
			n++
			return nil
		}); err != nil {
			cfg.Logf("ranad: warm-fill from %s stopped: %v", cfg.Store.Path(), err)
		}
		cfg.Logf("ranad: warm-filled %d plans from %s", n, cfg.Store.Path())
	}
	vars := s.m.expvarMap()
	if cfg.Ring != nil {
		vars.Set("shard_id", expvar.Func(func() any { return s.self.ID }))
		vars.Set("ring_nodes", expvar.Func(func() any { return cfg.Ring.Len() }))
	}
	if cfg.Store != nil {
		vars.Set("store_entries", expvar.Func(func() any { return cfg.Store.Stats().Entries }))
		vars.Set("store_bytes", expvar.Func(func() any { return cfg.Store.Stats().FileBytes }))
		vars.Set("store_replayed", expvar.Func(func() any { return cfg.Store.Stats().Replayed }))
	}
	if s.jobs != nil {
		vars.Set("jobs_tracked", expvar.Func(func() any { return s.jobs.len() }))
	}
	if s.memo != nil {
		// The shared memo's counters are read live at scrape time — they
		// advance inside computations, not on the request path.
		vars.Set("memo_hits", expvar.Func(func() any { return s.memo.Stats().Hits }))
		vars.Set("memo_misses", expvar.Func(func() any { return s.memo.Stats().Misses }))
		vars.Set("memo_entries", expvar.Func(func() any { return s.memo.Stats().Entries }))
		vars.Set("memo_records", expvar.Func(func() any { return s.memo.Stats().Records }))
	}
	s.vars = vars
	s.httpSrv = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the service's HTTP handler — the full route table with
// middleware applied. Exposed for tests (httptest.Server) and for
// embedding ranad's API under a larger mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.counted("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.counted("metrics", s.handleMetrics))
	mux.Handle("/v1/schedule", s.api("schedule", s.handleSchedule))
	mux.Handle("/v1/compile", s.api("compile", s.handleCompile))
	mux.Handle("/v1/evaluate", s.api("evaluate", s.handleEvaluate))
	mux.HandleFunc("/v1/catalog", s.counted("catalog", s.handleCatalog))
	if s.jobs != nil {
		mux.Handle("/v1/compile-batch", s.api("compile_batch", s.handleCompileBatch))
		mux.HandleFunc("/v1/jobs/", s.handleJob)
	}
	return mux
}

// ListenAndServe serves on cfg.Addr until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Shutdown. Like http.Server.Serve it returns
// http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.cfg.Logf("ranad: serving on %s", ln.Addr())
	return s.httpSrv.Serve(ln)
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests (and the computations they queue on) get until ctx
// expires to drain, then the base context is canceled so abandoned
// computations stop exploring layers.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.stop()
	return err
}

// api wraps an endpoint handler with the service middleware: method
// gating, per-request timeout, panic isolation, metrics accounting and
// logging.
func (s *Server) api(name string, h func(ctx context.Context, r *http.Request) (*response, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.m.status(name, s.error(w, &apiError{status: http.StatusMethodNotAllowed, msg: "use POST"}))
			return
		}
		start := time.Now()
		s.m.Requests.Add(1)
		s.m.InFlight.Add(1)
		defer s.m.InFlight.Add(-1)
		defer func() { s.m.observe(time.Since(start)) }()

		// Buffer the body so the shard router can forward the request
		// byte-for-byte; handlers keep decoding from r.Body unchanged.
		raw, rerr := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
		if rerr != nil {
			s.m.status(name, s.error(w, badRequest("reading request body: %v", rerr)))
			return
		}
		if len(raw) > maxRequestBytes {
			s.m.status(name, s.error(w, &apiError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes),
			}))
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		rctx := context.WithValue(r.Context(), rawBodyKey{}, raw)
		if r.Header.Get(ForwardedHeader) != "" {
			s.m.ForwardedServed.Add(1)
			rctx = context.WithValue(rctx, forwardedKey{}, true)
		}
		ctx, cancel := context.WithTimeout(rctx, s.cfg.RequestTimeout)
		defer cancel()

		resp, err := s.guard(name, func() (*response, error) { return h(ctx, r) })
		if err != nil {
			status := s.error(w, err)
			s.m.status(name, status)
			s.cfg.Logf("ranad: %s %s -> %d: %v (%v)", r.Method, r.URL.Path, status, err, time.Since(start))
			return
		}
		status := resp.status
		if status == 0 {
			status = http.StatusOK
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Rana-Cache", resp.source)
		w.Header().Set("X-Rana-Key", resp.key)
		w.WriteHeader(status)
		w.Write(resp.body)
		s.m.status(name, status)
		s.cfg.Logf("ranad: %s %s -> %d %s (%v)", r.Method, r.URL.Path, status, resp.source, time.Since(start))
	})
}

// guard runs h with the handler-side panic isolation: a panic on the
// request path (decoding, resolving, hashing — anything outside the
// flight goroutine, which has its own recover) becomes a structured
// 500 instead of killing the process. Panics recovered here are counted
// directly; flight panics are counted in computationDone, so the two
// recovery sites never double-count one event.
func (s *Server) guard(name string, h func() (*response, error)) (resp *response, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &panicError{val: r, stack: debug.Stack()}
			s.m.PanicsRecovered.Add(1)
			s.cfg.Logf("ranad: recovered handler panic on %s: %v\n%s", name, r, pe.stack)
			resp, err = nil, pe
		}
	}()
	return h()
}

// counted wraps the always-available GET endpoints (health, metrics,
// catalog) with status accounting only: they must stay off the
// admission path so they answer even when the pool is saturated.
func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r)
		s.m.status(name, http.StatusOK)
	}
}

// response is one successful API response: the exact bytes to send plus
// cache metadata (carried in headers, never in the body, so cached and
// uncached responses stay byte-identical).
type response struct {
	body   []byte
	key    string
	source string // "hit", "miss", "dedup", "store", "forward" or "job"
	status int    // HTTP status; 0 means 200
}

// error writes a JSON error response, counts it, and returns the
// status it sent so the caller can attribute it per endpoint.
func (s *Server) error(w http.ResponseWriter, err error) int {
	s.m.Errors.Add(1)
	status := http.StatusInternalServerError
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.status
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(ae.retryAfter)))
		}
	case isPanic(err):
		// Keep 500: a recovered panic is a server bug, never the
		// client's fault, even if a ctx error is also in the chain.
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away or the server is draining; 503 tells a
		// proxy the request is retryable elsewhere.
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	return status
}

// retryAfterSeconds renders a duration as a Retry-After value: whole
// seconds, rounded up, at least 1 (a 0 tells clients to hammer).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// isPanic reports whether err is a recovered panic from either
// isolation layer: the flight goroutine (*panicError) or the
// scheduler's per-layer workers (*sched.PanicError).
func isPanic(err error) bool {
	var pe *panicError
	var spe *sched.PanicError
	return errors.As(err, &pe) || errors.As(err, &spe)
}

// tiered answers key from the cache tiers: the LRU, then the
// persistent store, which serves entries evicted from the LRU (or never
// warm-filled into it) without recompiling and refills the LRU. Both
// are consulted before the breaker — persisted bytes are proven good.
func (s *Server) tiered(key string) (*response, bool) {
	if body, ok := s.cache.Get(key); ok {
		s.m.CacheHits.Add(1)
		return &response{body: body, key: key, source: "hit"}, true
	}
	if s.cfg.Store != nil {
		if body, ok := s.cfg.Store.Get(key); ok {
			s.m.StoreHits.Add(1)
			s.cache.Add(key, body)
			return &response{body: body, key: key, source: "store"}, true
		}
	}
	return nil, false
}

// cachedMode runs the cache → store → singleflight → worker-pool path
// shared by every computing endpoint: return the cached body for key if
// present, otherwise join or start the single computation for key,
// bounded by the worker pool, and cache its result. Synchronous
// requests shed immediately when the queue is full (wait=false, the
// 429 + Retry-After contract), while async batch entries wait for a
// token (wait=true — a job holding no HTTP connection has nowhere to
// bounce a 429 to, and the job table already bounds outstanding work).
func (s *Server) cachedMode(ctx context.Context, key string, wait bool, compute func(ctx context.Context) ([]byte, error)) (*response, error) {
	if resp, ok := s.tiered(key); ok {
		return resp, nil
	}
	if wait, ok := s.breaker.allow(key); !ok {
		s.m.BreakerFastFails.Add(1)
		return nil, &apiError{
			status:     http.StatusServiceUnavailable,
			msg:        "circuit open: this request has repeatedly panicked or timed out; retry later",
			retryAfter: wait,
		}
	}
	body, shared, err := s.flights.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		// Admission and the worker slot are per *computation*, not per
		// request: a hundred deduplicated requests cost one queue token
		// and one slot, and joining an existing flight is never shed.
		if wait {
			if err := s.admitWait(fctx); err != nil {
				return nil, err
			}
		} else if err := s.admit(); err != nil {
			return nil, err
		}
		defer s.releaseQueue()
		select {
		case s.sem <- struct{}{}:
		case <-fctx.Done():
			return nil, fctx.Err()
		}
		defer func() { <-s.sem }()
		if s.cfg.Chaos != nil {
			if err := s.cfg.Chaos.Inject(fctx); err != nil {
				return nil, err
			}
		}
		body, err := compute(fctx)
		if err == nil {
			s.remember(key, body)
		}
		return body, err
	})
	if err != nil {
		return nil, err
	}
	source := "miss"
	if shared {
		s.m.Deduped.Add(1)
	} else {
		s.m.CacheMisses.Add(1)
	}
	if shared {
		source = "dedup"
	}
	return &response{body: body, key: key, source: source}, nil
}

// remember records a proven-good response body in both cache tiers.
// A store write failure is logged, never surfaced: the bytes are
// correct and servable, durability is best-effort. The one exception
// worth shouting about is the store's determinism tripwire — a re-put
// of the same key with different bytes — which Put rejects.
func (s *Server) remember(key string, body []byte) {
	s.cache.Add(key, body)
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Put(key, body); err != nil {
			s.cfg.Logf("ranad: store put %s: %v", key, err)
		}
	}
}

// computationDone observes every flight's outcome exactly once (the
// flightGroup calls it after fn returns, however many waiters shared
// the flight): panic accounting and cache eviction for poisoned keys,
// plus circuit-breaker bookkeeping.
func (s *Server) computationDone(key string, err error) {
	if err == nil {
		s.breaker.record(key, false, true)
		return
	}
	tripped := false
	switch {
	case isPanic(err):
		tripped = true
		s.m.PanicsRecovered.Add(1)
		s.cache.Remove(key)
		var pe *panicError
		if errors.As(err, &pe) {
			s.cfg.Logf("ranad: recovered computation panic for %s: %v\n%s", key, pe.val, pe.stack)
		} else {
			var spe *sched.PanicError
			if errors.As(err, &spe) {
				s.cfg.Logf("ranad: recovered scheduler panic for %s: %v\n%s", key, spe.Value, spe.Stack)
			}
		}
	case errors.Is(err, context.DeadlineExceeded):
		tripped = true
	}
	s.breaker.record(key, tripped, false)
}
