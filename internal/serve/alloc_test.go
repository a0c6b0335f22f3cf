package serve

import (
	"context"
	"runtime"
	"testing"

	"rana/internal/models"
)

// TestRequestFrontEndAllocs gates the allocations of a request's front
// half — resolving a decoded schedule request onto native types, the
// degradation ladder and the canonical key — and of the compile and
// evaluate keys. The ceilings are the counts the reflection-free path
// measures (the reflective key and the per-request zoo rebuild cost
// 163 and 187 for the two schedule requests, 11 per key); putting
// either back trips them. What remains: the key's string, the work and
// its closure, and option resolution (the pattern list, backend
// resolution, and under rtc × all the axis-spec parses).
// testing.AllocsPerRun pins GOMAXPROCS to 1 and warms up once, so the
// scratch pool is primed.
func TestRequestFrontEndAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	net, _ := models.ByName("GoogLeNet")
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"schedule/default", 9, func() {
			if _, err := s.prepareSchedule(ScheduleRequest{Model: "GoogLeNet"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"schedule/rtc-all-45us", 35, func() {
			req := ScheduleRequest{Model: "GoogLeNet", Options: &OptionsSpec{
				RefreshIntervalNS: 45_000, Traversal: "rtc", Mapping: "all",
			}}
			if _, err := s.prepareSchedule(req); err != nil {
				t.Fatal(err)
			}
		}},
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
// measures 11 allocations and about 13 KB for GoogLeNet, most of it the
// body's exact-length copy, which the cache keeps. The ceilings catch a
// fresh plan per request, which costs 2 allocations and about 27 KB
// more for its 57 layers.
func TestWarmMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ctx := context.Background()
	interval := int64(45_000)
	miss := func() {
		w, err := s.prepareSchedule(ScheduleRequest{Model: "GoogLeNet", Options: &OptionsSpec{RefreshIntervalNS: interval}})
		if err != nil {
			t.Fatal(err)
		}
		interval++
		if _, err := w.compute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The first miss builds the frontiers at 45 µs; every later interval
	// is above it.
	miss()
	allocs, bytes := allocsAndBytes(50, miss)
	t.Logf("warm miss: %.0f allocs/op, %.0f B/op", allocs, bytes)
	if allocs > 12 {
		t.Errorf("warm miss: %.0f allocs/op, ceiling 12", allocs)
	}
	if bytes > 16<<10 {
		t.Errorf("warm miss: %.0f B/op, ceiling %d", bytes, 16<<10)
	}
}

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
