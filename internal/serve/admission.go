package serve

// Overload control: a bounded admission queue in front of the worker
// pool, and a per-key circuit breaker over computation outcomes.
//
// Admission is per *computation*, not per request: it runs inside the
// singleflight function, so a thousand deduplicated requests for one
// key cost one queue token and one worker slot, and joining an
// already-running flight is never shed. /healthz and /metrics bypass
// this path entirely — they must answer precisely when the pool is
// saturated.
//
// The breaker fast-fails keys whose computations repeatedly panic or
// time out: after threshold consecutive trips the key opens for an
// exponentially growing backoff, then admits a single half-open probe
// whose outcome closes or re-opens it. Keys are independent — one
// pathological request shape cannot take down service for the rest.

import (
	"context"
	"sync"
	"time"
)

// admit reserves a queue token for one computation, shedding
// immediately (never blocking) when the queue is full. A nil error
// means the caller holds a token and must releaseQueue it.
func (s *Server) admit() error {
	select {
	case s.queue <- struct{}{}:
		return nil
	default:
		s.m.Shed.Add(1)
		return &apiError{
			status:     429,
			msg:        "server saturated: admission queue full",
			retryAfter: s.cfg.RetryAfter,
		}
	}
}

// admitWait reserves a queue token for one async computation, waiting
// for one instead of shedding: a batch-job entry holds no HTTP
// connection, so there is no client to bounce a 429 to, and the job
// table already bounds how much deferred work can pile up here.
func (s *Server) admitWait(ctx context.Context) error { return acquire(ctx, s.queue) }

// acquire takes a token of the semaphore ch, waiting for one while ctx
// lives. It asks ctx for Done only when ch is full: Done arms a
// flight's watch on its leader's context, which a free token spares.
func acquire(ctx context.Context, ch chan struct{}) error {
	select {
	case ch <- struct{}{}:
		return nil
	default:
	}
	select {
	case ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) releaseQueue() { <-s.queue }

// breaker is a per-key circuit breaker. now is a seam so tests can
// drive the clock.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive trips that open a key
	backoff   time.Duration // first open duration; doubles per re-open
	maxOpen   time.Duration // backoff growth cap
	maxKeys   int           // tracked-key bound; excess closed keys are dropped
	keys      map[string]*breakerState
	now       func() time.Time
	onOpen    func() // fires on each closed→open transition
}

type breakerState struct {
	fails     int // consecutive trip-class failures
	trips     int // times opened; scales the backoff
	openUntil time.Time
	probing   bool // a half-open probe is in flight
}

func newBreaker(threshold int, backoff time.Duration, onOpen func()) *breaker {
	return &breaker{
		threshold: threshold,
		backoff:   backoff,
		maxOpen:   time.Minute,
		maxKeys:   1024,
		keys:      make(map[string]*breakerState),
		now:       time.Now,
		onOpen:    onOpen,
	}
}

// allow reports whether a computation for key may start. When it may
// not, retryAfter is the remaining open window (at least the base
// backoff for the half-open case, where a probe is already out).
func (b *breaker) allow(key string) (retryAfter time.Duration, ok bool) {
	if b == nil {
		return 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st, tracked := b.keys[key]
	if !tracked || st.fails < b.threshold {
		return 0, true
	}
	if remaining := st.openUntil.Sub(b.now()); remaining > 0 {
		return remaining, false
	}
	// Open window elapsed: half-open. Admit exactly one probe; everyone
	// else keeps fast-failing until the probe's outcome lands.
	if st.probing {
		return b.backoff, false
	}
	st.probing = true
	return 0, true
}

// record feeds one computation outcome back. tripped marks the
// trip-class failures (panic, timeout); other errors — cancellations,
// sheds, infeasible requests — are neutral and leave the key alone.
func (b *breaker) record(key string, tripped, success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		delete(b.keys, key)
		return
	}
	if !tripped {
		if st, ok := b.keys[key]; ok {
			st.probing = false
		}
		return
	}
	st, ok := b.keys[key]
	if !ok {
		b.evictOverflowLocked()
		st = &breakerState{}
		b.keys[key] = st
	}
	st.probing = false
	st.fails++
	if st.fails >= b.threshold {
		open := b.backoff << st.trips
		if open > b.maxOpen || open <= 0 {
			open = b.maxOpen
		}
		st.trips++
		st.openUntil = b.now().Add(open)
		if st.trips == 1 && b.onOpen != nil {
			b.onOpen()
		}
	}
}

// evictOverflowLocked keeps the tracked-key map bounded: before
// inserting beyond maxKeys, drop a closed key (map order is fine — any
// closed key is equally disposable), falling back to an arbitrary key
// so a flood of hostile unique keys cannot grow the map without bound.
func (b *breaker) evictOverflowLocked() {
	if len(b.keys) < b.maxKeys {
		return
	}
	for k, st := range b.keys {
		if st.fails < b.threshold {
			delete(b.keys, k)
			return
		}
	}
	for k := range b.keys {
		delete(b.keys, k)
		return
	}
}
