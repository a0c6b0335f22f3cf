package main

// The in-process ranad and the closed-loop clients that drive it.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rana/internal/serve"
)

// ranad is one in-process ranad serving on a loopback listener through
// the server's own http.Server, as cmd/rana-serve runs it.
type ranad struct {
	srv  *serve.Server
	url  string
	done chan error
}

func startRanad(cfg serve.Config) (*ranad, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	r := &ranad{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { r.done <- r.srv.Serve(ln) }()
	return r, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (r *ranad) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("stopping ranad: %w", err)
	}
	return nil
}

// newHTTPClient returns a client holding at most two connections to
// ranad and ignoring any proxy settings of the environment.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// outcome is one response as a client saw it. body is valid until the
// client's next call.
type outcome struct {
	status int
	source string
	body   []byte
	err    error
}

// client is one closed-loop client: it sends a request, reads the whole
// response and only then sends the next one.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func (c *client) do(r *request) outcome {
	req, err := http.NewRequest(http.MethodPost, c.base+r.Endpoint, bytes.NewReader(r.Body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.send(req)
}

func (c *client) get(path string) outcome {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return outcome{err: err}
	}
	return c.send(req)
}

func (c *client) send(req *http.Request) outcome {
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return outcome{status: resp.StatusCode, source: resp.Header.Get("X-Rana-Cache"), body: c.buf.Bytes(), err: err}
}

// scrape reads ranad's /metrics document.
func (c *client) scrape() (map[string]any, error) {
	o := c.get("/metrics")
	if o.err != nil || o.status != http.StatusOK {
		return nil, fmt.Errorf("reading /metrics: status %d: %v", o.status, o.err)
	}
	var m map[string]any
	if err := json.Unmarshal(o.body, &m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// cached reads the plan-cache size ranad reports at /healthz.
func (c *client) cached() (int, error) {
	o := c.get("/healthz")
	if o.err != nil || o.status != http.StatusOK {
		return 0, fmt.Errorf("reading /healthz: status %d: %v", o.status, o.err)
	}
	var h struct {
		Cached int `json:"cached"`
	}
	if err := json.Unmarshal(o.body, &h); err != nil {
		return 0, fmt.Errorf("decoding /healthz: %w", err)
	}
	return h.Cached, nil
}

// counter reads one numeric /metrics counter.
func counter(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// Response sources, as ranad's X-Rana-Cache header names them.
const (
	srcNone uint8 = iota
	srcHit
	srcMiss
	srcOther
)

func sourceOf(s string) uint8 {
	switch s {
	case "hit":
		return srcHit
	case "miss":
		return srcMiss
	case "":
		return srcNone
	}
	return srcOther
}

// sample is one timed request. Start is the offset from the phase start,
// so a sample doubles as the request's span in a traced run. It holds no
// pointer to the request, so the live heap at the end of a run does not
// grow with the number of requests sent.
type sample struct {
	id     int32
	class  uint16
	kind   reqKind
	src    uint8
	inline bool
	ok     bool
	start  time.Duration
	dur    time.Duration
}

// hooks are a traced run's additions to the closed loop: probe runs
// before request i is sent, given the client's previous request (nil at
// first); keep runs after the response is checked.
type hooks struct {
	probe func(c *client, i int, prev *request)
	keep  func(r *request, o outcome)
}

// failLog counts failed operations and keeps the first few reasons.
type failLog struct {
	mu      sync.Mutex
	n       int
	reasons []string
}

func (f *failLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.reasons) < 10 {
		f.reasons = append(f.reasons, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// checker decides whether a response is correct. Per population key it
// keeps the SHA-256 digest of the bytes the key's first priming
// returned; every later response for the key must repeat them, and after
// priming must come from the cache. Digests rather than bytes, so that
// heap_mb measures ranad's memory and not a copy of its responses.
type checker struct {
	goldens map[string][]byte
	primed  []bool
	digest  [][sha256.Size]byte
	checked atomic.Int64
}

func newChecker(goldens map[string][]byte, keys int) *checker {
	return &checker{goldens: goldens, primed: make([]bool, keys), digest: make([][sha256.Size]byte, keys)}
}

func (ck *checker) check(r *request, o outcome) error {
	ck.checked.Add(1)
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	if r.Kind == kindPopular || r.Kind == kindPrime {
		if r.Kind == kindPopular && o.source != "hit" {
			return fmt.Errorf("population key %d served as %q after priming, want a hit", r.Key, o.source)
		}
		sum := sha256.Sum256(o.body)
		if ck.primed[r.Key] {
			if sum != ck.digest[r.Key] {
				return fmt.Errorf("population key %d: response differs from the primed response", r.Key)
			}
			return nil
		}
		if err := checkBody(o.body, r, ck.goldens); err != nil {
			return err
		}
		ck.digest[r.Key], ck.primed[r.Key] = sum, true // each key is first primed by one request
		return nil
	}
	if (r.Kind == kindSweep || r.Kind == kindFresh) && o.source != "miss" {
		return fmt.Errorf("never-seen request served as %q, want a miss", o.source)
	}
	return checkBody(o.body, r, ck.goldens)
}

// loop runs clients closed-loop clients over requests drawn from pull
// until it returns nil. Each response is checked; a failure is logged.
// Samples land in out at the index pull assigns; the call returns when
// every client has finished its last request.
func loop(hc *http.Client, base string, clients int, ck *checker, fails *failLog, start time.Time,
	pull func() (*request, int), out []sample, h hooks) {
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{hc: hc, base: base}
			var prev *request
			for {
				r, i := pull()
				if r == nil {
					return
				}
				if h.probe != nil {
					h.probe(c, i, prev)
				}
				prev = r
				t0 := time.Now()
				o := c.do(r)
				d := time.Since(t0)
				err := ck.check(r, o)
				if err != nil {
					fails.add("request %d %s: %v", r.ID, r.Endpoint, err)
				}
				if out != nil {
					out[i] = sample{id: int32(r.ID), class: uint16(r.Class), kind: r.Kind, src: sourceOf(o.source),
						inline: r.Inline, ok: err == nil, start: t0.Sub(start), dur: d}
				}
				if h.keep != nil {
					h.keep(r, o)
				}
			}
		}()
	}
	wg.Wait()
}

// runList sends a fixed list of set-up requests from two clients.
func (b *bench) runList(rd *ranad, reqs []*request) {
	var next atomic.Int64
	pull := func() (*request, int) {
		i := int(next.Add(1)) - 1
		if i >= len(reqs) {
			return nil, 0
		}
		return reqs[i], i
	}
	loop(b.hc, rd.url, 2, b.ck, &b.fails, time.Now(), pull, nil, hooks{})
}
