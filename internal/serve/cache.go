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
// Both structures are stdlib-only: container/list for the LRU,
// sync.Cond-free channel signaling for the flight group.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"sync"
)

// lru is a mutex-guarded bounded LRU map of response bodies.
type lru struct {
	mu     sync.Mutex
	max    int
	order  *list.List // front = most recently used; values are *lruEntry
	items  map[string]*list.Element
	bodies map[bodyDigest]bodyAlias // the body index
}

type lruEntry struct {
	key  string
	body []byte
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
	el   *list.Element
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
	return &lru{max: max, order: list.New(), items: make(map[string]*list.Element),
		bodies: make(map[bodyDigest]bodyAlias)}
}

// Get returns the cached body and promotes the entry.
func (c *lru) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
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
	c.order.MoveToFront(a.el)
	e := a.el.Value.(*lruEntry)
	return e.key, e.body, a.rung, true
}

// Alias indexes body digest d under key's entry, served on rung r, if
// the entry is cached and d names no entry yet. Beyond maxAliases the
// entry's oldest alias leaves the index.
func (c *lru) Alias(d bodyDigest, key string, r rung) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, ok := c.bodies[d]; ok {
		return
	}
	e := el.Value.(*lruEntry)
	if len(e.aliases) == maxAliases {
		delete(c.bodies, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, d)
	c.bodies[d] = bodyAlias{el: el, rung: r}
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
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).body = body
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, body: body})
	for c.order.Len() > c.max {
		c.unlink(c.order.Back())
	}
}

// Remove drops an entry if present, reporting whether it existed. The
// server uses it to evict a key whose computation later proved poisoned
// (e.g. a panic on a colliding degraded variant) so the next request
// recomputes instead of serving suspect bytes.
func (c *lru) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.unlink(el)
	}
	return ok
}

// unlink drops el and every body alias naming it. c.mu is held.
func (c *lru) unlink(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry)
	delete(c.items, e.key)
	for _, d := range e.aliases {
		delete(c.bodies, d)
	}
}

// Len returns the number of cached entries.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight is one in-progress computation shared by every concurrent
// request with the same key.
type flight struct {
	done   chan struct{} // closed when body/err are final
	body   []byte
	err    error
	ctx    context.Context // the computation's context
	cancel context.CancelFunc
	refs   int // waiters still interested; 0 cancels ctx
}

// flightGroup deduplicates concurrent computations by key. Unlike the
// classic singleflight, the computation does not run under any single
// request's context: it gets its own context (derived from the server's
// base context) that is canceled only when every waiter has abandoned
// the request — one impatient client cannot poison the result for the
// others, and a fully abandoned computation stops exploring layers.
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
// existing flight. A caller whose ctx expires detaches and returns
// ctx.Err(); the flight keeps running while any caller remains.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	f, ok := g.flights[key]
	if ok {
		f.refs++
		g.mu.Unlock()
		return g.wait(ctx, key, f, true)
	}
	fctx, cancel := context.WithCancel(g.base)
	f = &flight{done: make(chan struct{}), ctx: fctx, cancel: cancel, refs: 1}
	g.flights[key] = f
	g.mu.Unlock()

	go func() {
		// The deferred recover is the serving layer's panic isolation:
		// fn runs library code on behalf of N waiters, and a panic here
		// would otherwise kill the whole process (a caller-side recover
		// cannot catch a panic in another goroutine). It becomes one
		// *panicError that every waiter observes, counted exactly once
		// via onDone.
		defer func() {
			if r := recover(); r != nil {
				f.body, f.err = nil, &panicError{val: r, stack: debug.Stack()}
			}
			g.mu.Lock()
			delete(g.flights, key)
			g.mu.Unlock()
			if g.onDone != nil {
				g.onDone(key, f.err)
			}
			close(f.done)
			f.cancel()
		}()
		f.body, f.err = fn(f.ctx)
	}()
	return g.wait(ctx, key, f, false)
}

// wait blocks for the flight's result or the caller's cancellation.
func (g *flightGroup) wait(ctx context.Context, key string, f *flight, shared bool) ([]byte, bool, error) {
	select {
	case <-f.done:
		return f.body, shared, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.refs--
		if f.refs == 0 {
			// Last interested caller gone: stop the computation. The
			// flight goroutine still runs to completion (observing the
			// canceled context) and removes itself from the map.
			f.cancel()
		}
		g.mu.Unlock()
		return nil, shared, ctx.Err()
	}
}
