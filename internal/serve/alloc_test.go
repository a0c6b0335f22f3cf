package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rana/internal/models"
)

// TestRequestFrontEndAllocs gates the allocations of a request's front
// half — reading the body, resolving the decoded schedule or evaluate
// request onto native types, the degradation ladder and the canonical
// key — of the compile and evaluate keys, and of counting a response's
// status. The ceilings are the counts the reflection-free path measures
// (the reflective key and the per-request zoo rebuild cost 163 and 187
// for the two schedule requests, 11 per key; rebuilding the evaluation
// platform and the Table IV designs per request cost evaluate 17;
// encoding/json took 13 and 140 to decode the two bodies, and
// formatting a status label 2; parsing the axis specs at each step of
// resolving cost the default request 2 and rtc × all 28; resolving the
// backend a second time for the ladder cost the default request 1 and
// approx-dram 3); putting any back trips them. What remains of
// resolving: the key's string, the work and its closure, and option
// resolution (the pattern list and one backend resolution), the same for
// rtc × all as for the default, since the axis specs are parsed once per
// process. An approx-dram request adds its admitted points and Stage 1's
// per-layer budgets. The rtc × all request is
// built outside the count, as decoding builds it (the decode cases
// count that). Of reading: the reader, the request,
// one per pointer field and decoded string, and the layer slice's seven
// doublings up to GoogLeNet's 57 layers. A body hit through the whole
// handler skips all of that and allocates 4, whatever the body's
// length: the body's buffer, the response, the header values and the
// length's digits. Before the body index, the request timer on every
// request and the log lines formatted for a nil Logf, the same
// spelled-out GoogLeNet body took 163 as a decoded hit. A decoded hit
// of a named request, a spelling the body index does not hold, takes
// 14: the body hit's 4, decoding the named request and preparing its
// work; the cache tiers answer it before any timer is armed, which cost
// 4 more when every decoded request armed the request timeout.
// testing.AllocsPerRun pins GOMAXPROCS to 1 and warms up once, so the
// scratch pool is primed.
func TestRequestFrontEndAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	net, _ := models.ByName("GoogLeNet")
	named, spelled := []byte(sweepBody), spelledRequest(net)
	labels := newStatusLabels("schedule")
	rtcAll := ScheduleRequest{Model: "GoogLeNet", Options: &OptionsSpec{
		RefreshIntervalNS: 45_000, Traversal: "rtc", Mapping: "all",
	}}
	approx := ScheduleRequest{Model: "GoogLeNet", Options: &OptionsSpec{Backend: "approx-dram"}}
	// A miss and a decoded hit index the spelled-out body; every later
	// post of it is a body hit.
	bodyHit := handlerPost(s.Handler(), "/v1/schedule", spelled)
	bodyHit()
	bodyHit()
	// One more spelling of sweepBody's request than an entry holds
	// aliases, posted in turn: each post's spelling left the body index
	// when the four after it were indexed, so it is decoded and keyed,
	// and the plan cache answers its key.
	respell := handlerPoster(s.Handler(), "/v1/schedule")
	var spellings [maxAliases + 1][]byte
	for i := range spellings {
		spellings[i] = []byte("{" + strings.Repeat(" ", i) + sweepBody[1:])
		respell(spellings[i])
	}
	turn := 0
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"schedule/default", 6, func() {
			if _, err := s.prepareSchedule(ScheduleRequest{Model: "GoogLeNet"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"schedule/rtc-all-45us", 6, func() {
			if _, err := s.prepareSchedule(rtcAll); err != nil {
				t.Fatal(err)
			}
		}},
		{"schedule/approx-dram", 14, func() {
			if _, err := s.prepareSchedule(approx); err != nil {
				t.Fatal(err)
			}
		}},
		{"evaluate/default", 4, func() {
			if _, err := s.prepareEvaluate(EvaluateRequest{Design: "RANA*(E-5)", Model: "GoogLeNet"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"decode/named", 4, func() {
			var req ScheduleRequest
			if err := decodeRequest(named, &req, scheduleRequestFields); err != nil {
				t.Fatal(err)
			}
		}},
		{"decode/spelled-GoogLeNet", 125, func() {
			var req ScheduleRequest
			if err := decodeRequest(spelled, &req, scheduleRequestFields); err != nil {
				t.Fatal(err)
			}
		}},
		{"handler/body-hit-spelled-GoogLeNet", 4, func() {
			if code, source := bodyHit(); code != http.StatusOK || source != "hit" {
				t.Fatalf("body hit: status %d, X-Rana-Cache %q", code, source)
			}
		}},
		{"handler/decoded-hit-respelled", 14, func() {
			hits := s.m.CacheBodyHits.Value()
			code, source := respell(spellings[turn%len(spellings)])
			turn++
			if code != http.StatusOK || source != "hit" || s.m.CacheBodyHits.Value() != hits {
				t.Fatalf("decoded hit: status %d, X-Rana-Cache %q, body hits %d -> %d", code, source, hits, s.m.CacheBodyHits.Value())
			}
		}},
		{"status", 0, func() { s.m.status(labels, http.StatusOK) }},
		{"compileKey", 1, func() { compileKey(net, "") }},
		{"evaluateKey", 1, func() { evaluateKey("RANA*(E-5)", net, "", "") }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(50, c.run); got > c.max {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.0f allocs/op", c.name, got)
		}
	}
}

// TestWarmMissAllocs pins what a warm /v1/schedule miss allocates: a
// never-seen refresh interval, so the request misses the response cache,
// while the shared memo's frontiers answer every layer. The request is
// resolved and keyed, compiled into a pooled plan and encoded. This path
// measures 7 allocations for GoogLeNet on the default space and on RTC ×
// all mappings alike, and about 13 KB (14 KB for the enlarged space,
// whose body names each layer's traversal and mapping), most of it the
// body's exact-length copy, which the cache keeps. The axis specs are
// parsed once per process; parsing them at each of a request's steps
// cost the enlarged space 62 allocations against the default's 10. The
// ceilings catch a fresh plan per request, which costs 2 allocations and
// about 27 KB more for its 57 layers, and an enlarged space that
// allocates more than the default one.
//
// The handler/warm-miss cases post the same miss through s.Handler():
// reading and decoding the body, the cache tiers, the request timer a
// miss arms, the flight and the cache insert around the 7 above. They
// measure 23 allocations on the default space and 25 on RTC × all
// mappings, whose body decodes two more strings. When a goroutine of
// its own ran each flight while the leader waited, they measured 29 and
// 31: that goroutine's closure, the route closure it kept, the flight's
// done channel, and the Done channels of the flight's context (for the
// worker-slot select) and of the request's (for the wait). A cache
// entry that kept its recency links in a container/list element cost
// one more.
func TestWarmMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ctx := context.Background()
	post := handlerPoster(s.Handler(), "/v1/schedule")
	var base float64
	for _, space := range []struct {
		name, traversal, mapping string
		handler                  float64 // the handler/warm-miss ceiling
	}{
		{"default", "", "", 23},
		{"rtc-all", "rtc", "all", 25},
	} {
		interval := int64(45_000)
		spec := &OptionsSpec{Traversal: space.traversal, Mapping: space.mapping}
		miss := func() {
			spec.RefreshIntervalNS = interval
			w, err := s.prepareSchedule(ScheduleRequest{Model: "GoogLeNet", Options: spec})
			if err != nil {
				t.Fatal(err)
			}
			interval++
			if _, err := w.compute(ctx); err != nil {
				t.Fatal(err)
			}
		}
		// The first miss builds the frontiers at 45 µs; every later
		// interval is above it.
		miss()
		allocs, bytes := allocsAndBytes(50, miss)
		t.Logf("%s warm miss: %.0f allocs/op, %.0f B/op", space.name, allocs, bytes)
		if allocs > 8 {
			t.Errorf("%s warm miss: %.0f allocs/op, ceiling 8", space.name, allocs)
		}
		if bytes > 16<<10 {
			t.Errorf("%s warm miss: %.0f B/op, ceiling %d", space.name, bytes, 16<<10)
		}
		// Whole objects per request, as testing.AllocsPerRun counts them:
		// a collection during the runs empties the pools, and refilling
		// them adds a fraction to either mean.
		if space.name == "default" {
			base = allocs
		} else if int(allocs) > int(base) {
			t.Errorf("%s warm miss: %d allocs/op, more than the default space's %d", space.name, int(allocs), int(base))
		}

		// The same miss through the handler, at intervals the loop above
		// never posted.
		var body []byte
		head := `{"model":"GoogLeNet","options":{"refresh_interval_ns":`
		axes := ""
		if space.traversal != "" {
			axes = `,"traversal":"` + space.traversal + `","mapping":"` + space.mapping + `"`
		}
		interval = 500_000
		handlerMiss := func() {
			body = strconv.AppendInt(append(body[:0], head...), interval, 10)
			body = append(append(body, axes...), "}}"...)
			interval++
			if code, source := post(body); code != http.StatusOK || source != "miss" {
				t.Fatalf("status %d, X-Rana-Cache %q, want a miss", code, source)
			}
		}
		name := "handler/warm-miss-" + space.name
		if got := testing.AllocsPerRun(50, handlerMiss); got > space.handler {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", name, got, space.handler)
		} else {
			t.Logf("%s: %.0f allocs/op", name, got)
		}
	}
}

// handlerPost returns a func that posts body to path through h and
// reports the status and X-Rana-Cache (handlerPoster).
func handlerPost(h http.Handler, path string, body []byte) func() (int, string) {
	post := handlerPoster(h, path)
	return func() (int, string) { return post(body) }
}

// handlerPoster returns a func that posts a body to path through h and
// reports the status and X-Rana-Cache. It reuses one request and one
// writer that keeps nothing, so what a post allocates is h's own.
func handlerPoster(h http.Handler, path string) func(body []byte) (int, string) {
	rd := bytes.NewReader(nil)
	r := httptest.NewRequest(http.MethodPost, path, nil)
	r.Body = io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	return func(body []byte) (int, string) {
		rd.Reset(body)
		r.ContentLength = int64(len(body))
		clear(w.h)
		w.status = 0
		h.ServeHTTP(w, r)
		return w.status, w.h.Get("X-Rana-Cache")
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and the
// header map and drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// allocsAndBytes is testing.AllocsPerRun reporting bytes too: f's mean
// allocations and allocated bytes per run at GOMAXPROCS 1, after one
// warm-up run.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
