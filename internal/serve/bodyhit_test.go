package serve

// Tests for the plan cache's body index: a request body repeated byte
// for byte is answered from the entry it resolved to without being read
// through its field table, resolved or keyed. A body hit must be
// indistinguishable from the decoded hit it replaces, and the index
// must never name bytes the cache no longer holds.

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rana/internal/models"
)

// posted is one response as the body-index tests compare it: what the
// client saw, and how far the counters a hit moves advanced.
type posted struct {
	status                           int
	body                             []byte
	key, cache                       string
	hits, bodyHits, degraded, budget int64
}

// postCounted posts body to path and returns the response with its
// counter deltas. The server must see no other traffic meanwhile. Every
// response must declare its length: no body goes out chunked.
func postCounted(t *testing.T, url, path, body string) posted {
	t.Helper()
	before := metricsDoc(t, url)
	resp := post(t, url+path, body)
	b := readBody(t, resp)
	if resp.ContentLength != int64(len(b)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			path, resp.ContentLength, resp.TransferEncoding, len(b))
	}
	after := metricsDoc(t, url)
	delta := func(name string) int64 { return metricInt(t, after, name) - metricInt(t, before, name) }
	return posted{status: resp.StatusCode, body: b,
		key: resp.Header.Get("X-Rana-Key"), cache: resp.Header.Get("X-Rana-Cache"),
		hits: delta("cache_hits"), bodyHits: delta("cache_body_hits"),
		degraded: delta("degraded"), budget: delta("budget_rejections")}
}

// sameHit reports how a body hit differs from the decoded hit it
// replaces, in anything but the body-index counter; "" if in nothing.
func sameHit(decoded, body posted) string {
	switch {
	case decoded.status != body.status:
		return fmt.Sprintf("status %d, decoded hit %d", body.status, decoded.status)
	case !bytes.Equal(decoded.body, body.body):
		return "body bytes differ from the decoded hit's"
	case decoded.key != body.key || decoded.cache != body.cache:
		return fmt.Sprintf("X-Rana-Key %s, X-Rana-Cache %q; decoded hit %s, %q", body.key, body.cache, decoded.key, decoded.cache)
	case decoded.hits != body.hits || decoded.degraded != body.degraded || decoded.budget != body.budget:
		return fmt.Sprintf("cache_hits/degraded/budget_rejections +%d/+%d/+%d; decoded hit +%d/+%d/+%d",
			body.hits, body.degraded, body.budget, decoded.hits, decoded.degraded, decoded.budget)
	}
	return ""
}

// TestBodyHitMatchesDecodedHit posts each request three times: a miss,
// a decoded hit, which indexes the body, and a body hit. The body hit
// must equal the decoded hit in status, bytes, headers and the deltas
// of cache_hits, degraded and budget_rejections, on every endpoint over
// the zoo, named and spelled out, and on each rung of the ladder. Each
// spelling gets its own server, so both start from a miss.
func TestBodyHitMatchesDecodedHit(t *testing.T) {
	type request struct{ path, body string }
	zoo := map[string][]request{}
	for _, net := range models.Benchmarks() {
		spelled := spelledNetwork(net)
		for _, r := range []struct {
			path           string
			named, spelled any
		}{
			{"/v1/schedule", ScheduleRequest{Model: net.Name}, ScheduleRequest{Network: spelled}},
			{"/v1/compile", CompileRequest{Model: net.Name}, CompileRequest{Network: spelled}},
			{"/v1/evaluate", EvaluateRequest{Design: "RANA*(E-5)", Model: net.Name},
				EvaluateRequest{Design: "RANA*(E-5)", Network: spelled}},
		} {
			zoo["named"] = append(zoo["named"], request{r.path, string(mustMarshal(t, r.named))})
			zoo["spelled"] = append(zoo["spelled"], request{r.path, string(mustMarshal(t, r.spelled))})
		}
	}
	deadline := `{"model": "AlexNet", "deadline_ms": 30000}`
	cases := []struct {
		name string
		cfg  Config
		reqs []request
		// the counters every hit of the case moves
		degraded, budget int64
	}{
		{"zoo/named", Config{}, zoo["named"], 0, 0},
		{"zoo/spelled", Config{}, zoo["spelled"], 0, 0},
		{"beam-rung", Config{DegradeBudget: 50 * time.Millisecond, BeamBudget: time.Hour},
			[]request{{"/v1/schedule", deadline}}, 0, 0},
		{"degraded", Config{DegradeBudget: time.Hour}, []request{{"/v1/schedule", deadline}}, 1, 0},
		{"budget-fallback", Config{}, []request{{"/v1/schedule", `{"network": ` + tinyNetJSON +
			`, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`}}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			for _, r := range tc.reqs {
				miss := postCounted(t, ts.URL, r.path, r.body)
				decoded := postCounted(t, ts.URL, r.path, r.body)
				hit := postCounted(t, ts.URL, r.path, r.body)
				name := r.path + " " + r.body[:min(len(r.body), 60)]
				if miss.status != http.StatusOK || miss.cache != "miss" {
					t.Fatalf("%s: first post %d %q, want a 200 miss: %s", name, miss.status, miss.cache, miss.body)
				}
				if decoded.cache != "hit" || decoded.bodyHits != 0 {
					t.Errorf("%s: second post %q with cache_body_hits +%d, want a decoded hit", name, decoded.cache, decoded.bodyHits)
				}
				if hit.bodyHits != 1 {
					t.Errorf("%s: third post moved cache_body_hits +%d, want a body hit", name, hit.bodyHits)
				}
				if diff := sameHit(decoded, hit); diff != "" {
					t.Errorf("%s: body hit: %s", name, diff)
				}
				if decoded.hits != 1 || decoded.degraded != tc.degraded || decoded.budget != tc.budget {
					t.Errorf("%s: decoded hit moved cache_hits/degraded/budget_rejections +%d/+%d/+%d, want +1/+%d/+%d",
						name, decoded.hits, decoded.degraded, decoded.budget, tc.degraded, tc.budget)
				}
				if !bytes.Equal(miss.body, hit.body) || miss.key != hit.key {
					t.Errorf("%s: body hit serves other bytes or another key than the miss", name)
				}
			}
		})
	}
}

// TestBodyIndexSeparatesEndpoints: one body means different requests on
// different endpoints, so a body indexed on /v1/schedule is no body hit
// on /v1/compile, and each endpoint's repeat answers with its own entry.
func TestBodyIndexSeparatesEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"model":"AlexNet"}`
	var sched posted
	for i := 0; i < 3; i++ {
		sched = postCounted(t, ts.URL, "/v1/schedule", body)
	}
	if sched.bodyHits != 1 {
		t.Fatalf("third schedule post: cache_body_hits +%d, want a body hit", sched.bodyHits)
	}
	compile := postCounted(t, ts.URL, "/v1/compile", body)
	if compile.status != http.StatusOK || compile.cache != "miss" || compile.bodyHits != 0 {
		t.Fatalf("first compile post: %d %q, cache_body_hits +%d; want a 200 miss: %s",
			compile.status, compile.cache, compile.bodyHits, compile.body)
	}
	if compile.key == sched.key || bytes.Equal(compile.body, sched.body) {
		t.Error("compile answered with the schedule entry")
	}
	postCounted(t, ts.URL, "/v1/compile", body)
	again := postCounted(t, ts.URL, "/v1/compile", body)
	if again.bodyHits != 1 || again.key != compile.key || !bytes.Equal(again.body, compile.body) {
		t.Errorf("third compile post: cache_body_hits +%d, key %s; want a body hit on %s", again.bodyHits, again.key, compile.key)
	}
	if s := postCounted(t, ts.URL, "/v1/schedule", body); s.bodyHits != 1 || s.key != sched.key {
		t.Errorf("schedule after compile: cache_body_hits +%d, key %s; want a body hit on %s", s.bodyHits, s.key, sched.key)
	}
}

// tinyNamed is tinyNetJSON's network under another name: a distinct
// cache key that schedules as fast.
func tinyNamed(name string) string {
	return `{"network": ` + strings.Replace(tinyNetJSON, `"tiny"`, `"`+name+`"`, 1) + `}`
}

// TestBodyAliasesLeaveWithTheirEntry: evicting an entry, or removing it
// as poisoned, drops every body alias naming it, so the next post of
// that body is decoded and recomputed rather than answered with bytes
// the cache no longer holds.
func TestBodyAliasesLeaveWithTheirEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	a := tinyNamed("a")
	for i := 0; i < 3; i++ {
		postCounted(t, ts.URL, "/v1/schedule", a)
	}
	if n := aliasCount(s.cache); n != 1 {
		t.Fatalf("%d bodies indexed after a miss and two hits, want 1", n)
	}
	// Two more keys evict a's entry.
	postCounted(t, ts.URL, "/v1/schedule", tinyNamed("b"))
	postCounted(t, ts.URL, "/v1/schedule", tinyNamed("c"))
	if n := aliasCount(s.cache); n != 0 {
		t.Errorf("%d bodies indexed after their entry was evicted, want 0", n)
	}
	checkBodyIndex(t, s.cache)
	if p := postCounted(t, ts.URL, "/v1/schedule", a); p.cache != "miss" {
		t.Errorf("post after eviction served as %q, want a miss", p.cache)
	}
	p := postCounted(t, ts.URL, "/v1/schedule", a)
	if n := aliasCount(s.cache); p.cache != "hit" || n != 1 {
		t.Fatalf("post after the recompute served as %q with %d bodies indexed, want a hit indexing 1", p.cache, n)
	}
	if !s.cache.Remove(p.key) {
		t.Fatal("Remove found no entry")
	}
	if n := aliasCount(s.cache); n != 0 {
		t.Errorf("%d bodies indexed after Remove, want 0", n)
	}
	checkBodyIndex(t, s.cache)
	if p := postCounted(t, ts.URL, "/v1/schedule", a); p.cache != "miss" {
		t.Errorf("post after Remove served as %q, want a miss", p.cache)
	}
}

// TestBodyAliasesBounded: ten whitespace respellings of one key are ten
// bodies; the entry keeps the four newest, and a respelling it dropped
// is decoded again.
func TestBodyAliasesBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postCounted(t, ts.URL, "/v1/schedule", `{"model":"AlexNet"}`)
	respelled := func(i int) string { return `{` + strings.Repeat(" ", i+1) + `"model":"AlexNet"}` }
	for i := 0; i < 10; i++ {
		if p := postCounted(t, ts.URL, "/v1/schedule", respelled(i)); p.cache != "hit" || p.bodyHits != 0 {
			t.Fatalf("respelling %d: %q with cache_body_hits +%d, want a decoded hit", i, p.cache, p.bodyHits)
		}
	}
	if n := aliasCount(s.cache); n != maxAliases {
		t.Fatalf("%d bodies indexed, want %d", n, maxAliases)
	}
	checkBodyIndex(t, s.cache)
	for i := 9; i >= 0; i-- {
		want := int64(0) // dropped, so decoded again
		if i >= 10-maxAliases {
			want = 1 // one of the newest, so a body hit
		}
		if p := postCounted(t, ts.URL, "/v1/schedule", respelled(i)); p.bodyHits != want {
			t.Errorf("respelling %d: cache_body_hits +%d, want +%d", i, p.bodyHits, want)
		}
		if n := aliasCount(s.cache); n > maxAliases {
			t.Fatalf("%d bodies indexed, more than %d", n, maxAliases)
		}
	}
	checkBodyIndex(t, s.cache)
}

// TestRejectedBodyNeverIndexed: a body that gets a 400 is decoded again
// every time it is posted; nothing is indexed for it.
func TestRejectedBodyNeverIndexed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, r := range []struct{ path, body string }{
		{"/v1/schedule", `{"model": "LeNet"}`},
		{"/v1/schedule", `not json`},
		{"/v1/schedule", `{"model": "AlexNet", "deadline_ms": -5}`},
		{"/v1/compile", `{"model": "AlexNet", "search": "annealing"}`},
		{"/v1/evaluate", `{"design": "RANA*(E-5)", "model": "AlexNet", "backend": "approx-dram", "operating_point": "v0.7"}`},
	} {
		for i := 0; i < 3; i++ {
			if p := postCounted(t, ts.URL, r.path, r.body); p.status != http.StatusBadRequest || p.bodyHits != 0 || p.hits != 0 {
				t.Errorf("%s %s post %d: status %d, cache_hits +%d, cache_body_hits +%d; want a 400 and no hit",
					r.path, r.body, i, p.status, p.hits, p.bodyHits)
			}
		}
	}
	if n := aliasCount(s.cache); n != 0 {
		t.Errorf("%d rejected bodies indexed, want 0", n)
	}
}

// TestLRUBodyIndex exercises the index on the LRU alone: Alias attaches
// only to a cached entry and only an unindexed digest, GetBody promotes
// the entry it answers with, and eviction drops the evicted entry's
// aliases.
func TestLRUBodyIndex(t *testing.T) {
	c := newLRU(2)
	d := func(s string) bodyDigest { return digestBody("schedule", []byte(s)) }
	c.Alias(d("a1"), "a", rungFull)
	if _, _, _, ok := c.GetBody(d("a1")); ok {
		t.Fatal("alias attached to an uncached key")
	}
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	c.Alias(d("a1"), "a", rungDegraded)
	c.Alias(d("a1"), "b", rungFull) // already indexed: ignored
	if key, body, r, ok := c.GetBody(d("a1")); !ok || key != "a" || string(body) != "A" || r != rungDegraded {
		t.Fatalf("GetBody = %q %q %v %v, want a's entry on the degraded rung", key, body, r, ok)
	}
	if digestBody("compile", []byte("a1")) == d("a1") {
		t.Fatal("one body digests alike on two endpoints")
	}
	// GetBody promoted a, so c evicts b.
	c.Add("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; GetBody did not promote a")
	}
	c.Alias(d("c1"), "c", rungFull)
	c.Add("e", []byte("E")) // evicts a
	if _, _, _, ok := c.GetBody(d("a1")); ok {
		t.Error("a's alias outlived its entry")
	}
	if _, _, _, ok := c.GetBody(d("c1")); !ok {
		t.Error("c's alias lost with another entry")
	}
	checkBodyIndex(t, c)
}

// TestBodyIndexStress races body hits against inserts, aliasing,
// evictions and removals on a three-entry LRU. Every answer must be the
// bytes of the key its digest was attached to, and the index must be
// consistent with the entries afterwards.
func TestBodyIndexStress(t *testing.T) {
	c := newLRU(3)
	const keys, spellings, workers, rounds = 8, 6, 8, 2000
	digest := func(k, j int) bodyDigest { return digestBody("schedule", []byte(fmt.Sprintf("%d/%d", k, j))) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k, j := (w*7+i*3)%keys, (w+i)%spellings
				key := fmt.Sprint("k", k)
				switch (w + i) % 5 {
				case 0:
					c.Add(key, []byte("body of "+key))
				case 1, 2:
					c.Alias(digest(k, j), key, rungFull)
				case 3:
					if got, body, _, ok := c.GetBody(digest(k, j)); ok && (got != key || string(body) != "body of "+key) {
						t.Errorf("digest of %s answered %s: %q", key, got, body)
						return
					}
				case 4:
					if i%7 == 0 {
						c.Remove(key)
					} else {
						c.Get(key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checkBodyIndex(t, c)
}

// TestBodyIndexStressServed races repeated bodies through a two-entry
// server cache: schedule posts of six networks, each in two spellings,
// from eight clients, so body hits, decoded hits, misses and evictions
// interleave. Every response to a network must carry its bytes.
func TestBodyIndexStressServed(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2, QueueDepth: 64})
	var mu sync.Mutex
	want := map[string][]byte{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				name := fmt.Sprint("n", (w+i)%6)
				body := tinyNamed(name)
				if (w+i)%2 == 1 {
					body = strings.ReplaceAll(body, "\n", " ")
				}
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", name, resp.StatusCode, buf.Bytes())
					return
				}
				mu.Lock()
				if prev, ok := want[name]; !ok {
					want[name] = buf.Bytes()
				} else if !bytes.Equal(prev, buf.Bytes()) {
					t.Errorf("%s served other bytes (X-Rana-Cache %s)", name, resp.Header.Get("X-Rana-Cache"))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	checkBodyIndex(t, s.cache)
}

// aliasCount returns the number of bodies c indexes.
func aliasCount(c *lru) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bodies)
}

// checkBodyIndex fails t unless the body index and the entries agree:
// every entry lists at most maxAliases digests, each indexed under that
// entry, and the index holds nothing else.
func checkBodyIndex(t *testing.T, c *lru) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.root.next; e != &c.root; e = e.next {
		if c.items[e.key] != e {
			t.Errorf("entry %s is not indexed by its key", e.key)
		}
		if len(e.aliases) > maxAliases {
			t.Errorf("entry %s holds %d aliases, more than %d", e.key, len(e.aliases), maxAliases)
		}
		for _, d := range e.aliases {
			if a, ok := c.bodies[d]; !ok || a.e != e {
				t.Errorf("an alias of %s is not indexed under it", e.key)
			}
		}
		n += len(e.aliases)
	}
	if n != len(c.bodies) {
		t.Errorf("the index holds %d bodies, the entries list %d", len(c.bodies), n)
	}
}
