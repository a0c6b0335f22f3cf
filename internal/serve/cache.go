package serve

// The plan cache: a bounded LRU of marshaled response bodies keyed by
// the canonical request hash, fronted by a singleflight group so N
// concurrent identical requests run exactly one underlying schedule.
//
// Cached values are the final response *bytes*, not decoded plans, so a
// cache hit is byte-identical to the miss that populated it — a property
// the race tests assert and clients may rely on (e.g. for their own
// content-addressed stores).
//
// The LRU has a second index, from the digest of a raw request body to
// the entry that body resolved to, so a body repeated byte for byte is
// answered without being read, resolved or keyed again. An entry holds
// at most maxAliases of them, and they leave the index with it.
//
// Both structures are stdlib-only: for the LRU a map of entries that
// carry their own recency links, and for the flight group a map of
// flights, each computed on the goroutine of the request that starts it
// and awaited by the others on a channel. The server's computation
// caches its body before its flight leaves the group, and the leader of
// a new flight looks the key up once more, so a request that missed the
// cache just before an identical flight ended does not compute the key
// again.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// lru is a mutex-guarded bounded LRU map of response bodies. The
// entries form a ring through the sentinel root in recency order:
// root.next is the most recently used, root.prev the least.
type lru struct {
	mu     sync.Mutex
	max    int
	root   lruEntry
	items  map[string]*lruEntry
	bodies map[bodyDigest]bodyAlias // the body index
}

// lruEntry is one cached body, linked into its LRU's recency ring, so
// caching a body allocates the entry alone.
type lruEntry struct {
	prev, next *lruEntry
	key        string
	body       []byte
	// aliases are the body digests that name this entry, oldest first:
	// at most maxAliases, nil until the first is attached.
	aliases []bodyDigest
}

// bodyDigest is the body index's key: SHA-256 over an endpoint tag and
// a raw request body (digestBody).
type bodyDigest [sha256.Size]byte

// bodyAlias is one body's index entry: the cache entry it resolved to
// and the ladder rung it was served on, which a repeat is counted under.
type bodyAlias struct {
	e    *lruEntry
	rung rung
}

// maxAliases bounds the bodies one entry is reachable by: the spellings
// a fleet actually repeats (a named and a spelled-out network, a
// client's field order) fit, and a client respelling one key without
// end holds no more than this.
const maxAliases = 4

// digestBody is the body index's key of body posted to the endpoint
// tagged tag: SHA-256 over the tag, a NUL and the body, so one body
// posted to two endpoints names two entries.
func digestBody(tag string, body []byte) bodyDigest {
	bp := getScratch()
	b := append(append(append((*bp)[:0], tag...), 0), body...)
	d := bodyDigest(sha256.Sum256(b))
	putScratch(bp, b)
	return d
}

// newLRU returns an LRU holding up to max entries (max <= 0 disables
// caching entirely).
func newLRU(max int) *lru {
	c := &lru{max: max, items: make(map[string]*lruEntry), bodies: make(map[bodyDigest]bodyAlias)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// promote moves e, linked or not, to the front of the ring. c.mu is
// held.
func (c *lru) promote(e *lruEntry) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

// Get returns the cached body and promotes the entry.
func (c *lru) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.promote(e)
	return e.body, true
}

// GetBody is Get by body digest: the key and bytes of the entry d names,
// promoted, and the rung the body was served on.
func (c *lru) GetBody(d bodyDigest) (key string, body []byte, r rung, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.bodies[d]
	if !ok {
		return "", nil, 0, false
	}
	c.promote(a.e)
	return a.e.key, a.e.body, a.rung, true
}

// Alias indexes body digest d under key's entry, served on rung r, if
// the entry is cached and d names no entry yet. Beyond maxAliases the
// entry's oldest alias leaves the index.
func (c *lru) Alias(d bodyDigest, key string, r rung) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return
	}
	if _, ok := c.bodies[d]; ok {
		return
	}
	if len(e.aliases) == maxAliases {
		delete(c.bodies, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, d)
	c.bodies[d] = bodyAlias{e: e, rung: r}
}

// Add inserts or refreshes an entry, evicting the least recently used
// entry beyond capacity. A refreshed entry keeps its aliases: its key,
// and so the bytes it names, is unchanged.
func (c *lru) Add(key string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.promote(e)
		e.body = body
		return
	}
	e := &lruEntry{key: key, body: body}
	c.items[key] = e
	c.promote(e)
	for len(c.items) > c.max {
		c.unlink(c.root.prev)
	}
}

// Remove drops an entry if present, reporting whether it existed. The
// server uses it to evict a key whose computation later proved poisoned
// (e.g. a panic on a colliding degraded variant) so the next request
// recomputes instead of serving suspect bytes.
func (c *lru) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if ok {
		c.unlink(e)
	}
	return ok
}

// unlink drops e and every body alias naming it. c.mu is held.
func (c *lru) unlink(e *lruEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(c.items, e.key)
	for _, d := range e.aliases {
		delete(c.bodies, d)
	}
}

// Len returns the number of cached entries.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// flight is one in-progress computation shared by every concurrent
// request with the same key, and the context its fn runs under.
//
// That context answers for ctx, the flight's own, derived from the
// group's base: it ends when the base does, or, with the last leaver's
// cause, once every waiter has left. A joiner leaves when its wait sees
// its own context end. The leader runs fn and cannot wait, so its
// leaving is noted whenever fn asks the flight for Err or Done and
// finds the leader's context ended; Done also arms a callback on the
// leader's context (context.AfterFunc), since fn then waits rather than
// polls. A flight whose fn asks neither, a warm schedule among them,
// watches nothing. The leader's context is the caller's, so it is
// asked outside the group's mutex.
type flight struct {
	g      *flightGroup
	ctx    context.Context
	cancel context.CancelCauseFunc
	leader context.Context // the context of the request that started the flight
	arm    sync.Once       // arms the leader's callback, on the first Done

	// Guarded by g.mu.
	refs int           // waiters still interested, the leader while led; 0 cancels ctx
	led  bool          // the leader still counts among refs
	stop func() bool   // disarms the leader's callback, once armed
	done chan struct{} // closed when body/err are final; made by the first joiner

	body []byte // written by the leader, read by joiners once done closes
	err  error
}

// Deadline, Done, Err and Value make a flight a context.Context: ctx's
// answers, given after noting whether the leader has left.
func (f *flight) Deadline() (time.Time, bool) { return f.ctx.Deadline() }
func (f *flight) Value(key any) any           { return f.ctx.Value(key) }

func (f *flight) Err() error {
	f.noteLeader()
	return f.ctx.Err()
}

func (f *flight) Done() <-chan struct{} {
	f.noteLeader()
	f.arm.Do(f.armLeader)
	return f.ctx.Done()
}

// armLeader registers noteLeader to run once the leader's context ends.
func (f *flight) armLeader() {
	stop := context.AfterFunc(f.leader, f.noteLeader)
	f.g.mu.Lock()
	f.stop = stop
	f.g.mu.Unlock()
}

// noteLeader drops the leader's reference once its context has ended,
// as a joiner's leaving drops its own.
func (f *flight) noteLeader() {
	if f.leader.Err() == nil {
		return
	}
	cause := context.Cause(f.leader)
	f.g.mu.Lock()
	if f.led {
		f.led = false
		f.releaseLocked(cause)
	}
	f.g.mu.Unlock()
}

// releaseLocked drops one waiter's reference: the last one cancels the
// computation with its own cause. g.mu is held.
func (f *flight) releaseLocked(cause error) {
	f.refs--
	if f.refs == 0 {
		f.cancel(cause)
	}
}

// flightGroup deduplicates concurrent computations by key. Unlike the
// classic singleflight, the computation does not run under any single
// request's context: it gets its own context (derived from the server's
// base context) that is canceled only when every waiter has abandoned
// the request — one impatient client cannot poison the result for the
// others, and a fully abandoned computation stops exploring layers.
// The request that starts a flight computes it on its own goroutine;
// the group starts none.
type flightGroup struct {
	mu      sync.Mutex
	base    context.Context // server lifetime; Shutdown cancels it
	flights map[string]*flight

	// onDone, if set, observes every computation's outcome exactly once
	// — regardless of how many waiters shared the flight — after the
	// flight has left the map and before waiters are released. The
	// server hangs panic accounting, cache eviction and circuit-breaker
	// bookkeeping off it.
	onDone func(key string, err error)
}

// panicError is a recovered computation panic, carried to every waiter
// of the flight as an ordinary error. The stack is for the server log;
// Error deliberately omits it so clients never see goroutine dumps.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("internal panic: %v", e.val) }

func newFlightGroup(base context.Context) *flightGroup {
	return &flightGroup{base: base, flights: make(map[string]*flight)}
}

// Do returns the result of fn for key, executing fn at most once across
// concurrent callers. shared reports whether this caller joined an
// existing flight. The caller that starts the flight (the leader) runs
// fn itself, under the flight's context; a caller that joins waits for
// it. A joiner whose ctx ends leaves at once and returns ctx.Err(). A
// leader whose ctx ends keeps computing while any joiner waits, and
// returns ctx.Err() when the flight ends. Alone, its leaving cancels
// the computation: at once if fn waits on Done, else the next time fn
// asks for Err, as the scheduler does at each layer.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.refs++
		if f.done == nil {
			f.done = make(chan struct{})
		}
		g.mu.Unlock()
		return g.wait(ctx, f)
	}
	fctx, cancel := context.WithCancelCause(g.base)
	f := &flight{g: g, ctx: fctx, cancel: cancel, leader: ctx, refs: 1, led: true}
	g.flights[key] = f
	g.mu.Unlock()

	g.run(key, f, fn)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return f.body, false, f.err
}

// run calls fn for flight f on the leader's goroutine and settles the
// flight. The deferred recover is the serving layer's panic isolation:
// fn runs library code on behalf of every waiter, and a panic becomes
// one *panicError that each of them observes, counted exactly once via
// onDone, instead of unwinding the leader's handler. A computation its
// context ended reports why: the last leaver's cause, so a timeout
// reads as context.DeadlineExceeded.
func (g *flightGroup) run(key string, f *flight, fn func(ctx context.Context) ([]byte, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.body, f.err = nil, &panicError{val: r, stack: debug.Stack()}
		} else if f.err != nil && errors.Is(f.err, context.Canceled) && f.ctx.Err() != nil {
			f.err = context.Cause(f.ctx)
		}
		g.mu.Lock()
		delete(g.flights, key)
		done, stop := f.done, f.stop
		f.led = false
		g.mu.Unlock()
		if stop != nil {
			stop()
		}
		if g.onDone != nil {
			g.onDone(key, f.err)
		}
		if done != nil {
			close(done)
		}
		f.cancel(nil)
	}()
	f.body, f.err = fn(f)
}

// wait blocks a joiner for the flight's result or its own cancellation.
func (g *flightGroup) wait(ctx context.Context, f *flight) ([]byte, bool, error) {
	select {
	case <-f.done:
		return f.body, true, f.err
	case <-ctx.Done():
		f.noteLeader()
		cause := context.Cause(ctx)
		g.mu.Lock()
		f.releaseLocked(cause)
		g.mu.Unlock()
		return nil, true, ctx.Err()
	}
}
