package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
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
// resolving cost the default request 2 and rtc × all 28); putting any
// back trips them. What remains of resolving: the key's string, the work
// and its closure, and option resolution (the pattern list and backend
// resolution), the same for rtc × all as for the default, since the
// axis specs are parsed once per process. The rtc × all request is
// built outside the count, as decoding builds it (the decode cases
// count that). Of reading: the reader, the request,
// one per pointer field and decoded string, and the layer slice's seven
// doublings up to GoogLeNet's 57 layers. A body hit through the whole
// handler skips all of that and allocates 4, whatever the body's
// length: the body's buffer, the response, the header values and the
// length's digits. Before the body index, the request timer on every
// request and the log lines formatted for a nil Logf, the same
// spelled-out GoogLeNet body took 163 as a decoded hit.
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
	// A miss and a decoded hit index the spelled-out body; every later
	// post of it is a body hit.
	bodyHit := handlerPost(s.Handler(), "/v1/schedule", spelled)
	bodyHit()
	bodyHit()
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"schedule/default", 7, func() {
			if _, err := s.prepareSchedule(ScheduleRequest{Model: "GoogLeNet"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"schedule/rtc-all-45us", 7, func() {
			if _, err := s.prepareSchedule(rtcAll); err != nil {
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
		{"status", 0, func() { s.m.status(labels, http.StatusOK) }},
		{"compileKey", 1, func() { compileKey(net, "") }},
		{"evaluateKey", 1, func() { evaluateKey("RANA*(E-5)", net, "", "") }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(50, c.run); got > c.max {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, got, c.max)
		}
	}
}

// TestWarmMissAllocs pins what a warm /v1/schedule miss allocates: a
// never-seen refresh interval, so the request misses the response cache,
// while the shared memo's frontiers answer every layer. The request is
// resolved and keyed, compiled into a pooled plan and encoded. This path
// measures 8 allocations for GoogLeNet on the default space and on RTC ×
// all mappings alike, and about 13 KB (14 KB for the enlarged space,
// whose body names each layer's traversal and mapping), most of it the
// body's exact-length copy, which the cache keeps. The axis specs are
// parsed once per process; parsing them at each of a request's steps
// cost the enlarged space 62 allocations against the default's 10. The
// ceilings catch a fresh plan per request, which costs 2 allocations and
// about 27 KB more for its 57 layers, and an enlarged space that
// allocates more than the default one.
func TestWarmMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ctx := context.Background()
	var base float64
	for _, space := range []struct{ name, traversal, mapping string }{
		{"default", "", ""},
		{"rtc-all", "rtc", "all"},
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
		if allocs > 9 {
			t.Errorf("%s warm miss: %.0f allocs/op, ceiling 9", space.name, allocs)
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
