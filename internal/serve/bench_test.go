package serve

// Cache hit vs. miss benchmarks: the difference between these two
// numbers is the whole point of running RANA compilation as a service.
// A miss costs a full Fig. 13 exploration and the body's encoding. A
// hit on a body the cache has answered before — every post after the
// second of the one body the hit benchmarks repeat — costs the HTTP
// round trip, reading the body into one buffer, a SHA-256 over it, a
// probe of the body index and writing the cached bytes, 4 allocations
// on the server whatever the body's length. A hit on a body not yet
// indexed (a new spelling of a cached key) still pays the request's
// front half: reading the body through its field table, resolving it
// onto native types and hashing the canonical form of the resolved
// request (its SHA-256 over every layer's shape) before the LRU lookup.
// A spelled-out network is a hundred times longer to read than a named
// one, so the hit benchmarks run both, and BenchmarkDecodeRequest times
// the reading alone against encoding/json.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rana/internal/models"
)

const benchScheduleReq = `{"model": "AlexNet"}`

func benchServer(b *testing.B, cacheEntries int) *httptest.Server {
	b.Helper()
	s := New(Config{CacheEntries: cacheEntries})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	b.Cleanup(func() { s.Shutdown(context.Background()) })
	return ts
}

func doSchedule(b *testing.B, url string) { doScheduleBody(b, url, benchScheduleReq) }

func doScheduleBody(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
	// Drain so the connection is reused.
	buf := make([]byte, 4096)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
}

// BenchmarkScheduleCacheHit measures the steady state of a fleet
// re-requesting a compiled plan: everything after the first request is
// served from the LRU.
func BenchmarkScheduleCacheHit(b *testing.B) {
	ts := benchServer(b, 256)
	doSchedule(b, ts.URL) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doSchedule(b, ts.URL)
	}
}

// BenchmarkScheduleCacheHitInline is BenchmarkScheduleCacheHit with
// GoogLeNet spelled out layer by layer: the 57-layer body is what the
// fleet's inline clients send, so reading it and hashing the resolved
// network cost more than for a named model.
func BenchmarkScheduleCacheHitInline(b *testing.B) {
	body := spelledRequest(models.GoogLeNet())
	ts := benchServer(b, 256)
	doScheduleBody(b, ts.URL, string(body)) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doScheduleBody(b, ts.URL, string(body))
	}
}

// BenchmarkScheduleCacheMiss measures the cold path: caching disabled,
// every request runs the full Stage-2 exploration.
func BenchmarkScheduleCacheMiss(b *testing.B) {
	ts := benchServer(b, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doSchedule(b, ts.URL)
	}
}

// sweepBody is a retention-sweep request: a named model at a refresh
// interval.
const sweepBody = `{"model":"GoogLeNet","options":{"refresh_interval_ns":45000}}`

// BenchmarkWarmSweepMiss is one sweep request through ranad's handler,
// in process, to a writer that keeps nothing: a named zoo model at a
// never-seen refresh interval, so the request misses the response cache
// while the shared memo's frontiers answer every layer — what each
// request of a retention sweep costs once the memo is warm. The first
// request builds the frontiers at 45 µs; every later interval is above
// it. It runs each zoo network on the default space and on RTC × all
// mappings.
func BenchmarkWarmSweepMiss(b *testing.B) {
	for _, space := range []struct{ name, axes string }{
		{"default", ""},
		{"rtc-all", `,"traversal":"rtc","mapping":"all"`},
	} {
		for _, net := range models.Benchmarks() {
			b.Run(space.name+"/"+net.Name, func(b *testing.B) {
				s := New(Config{})
				b.Cleanup(func() { s.Shutdown(context.Background()) })
				post := handlerPoster(s.Handler(), "/v1/schedule")
				head := `{"model":"` + net.Name + `","options":{"refresh_interval_ns":`
				var body []byte
				interval := int64(45_000)
				miss := func() {
					body = strconv.AppendInt(append(body[:0], head...), interval, 10)
					body = append(append(body, space.axes...), "}}"...)
					interval++
					if code, source := post(body); code != http.StatusOK || source != "miss" {
						b.Fatalf("status %d, X-Rana-Cache %q, want a miss", code, source)
					}
				}
				miss()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					miss()
				}
			})
		}
	}
}

// BenchmarkDecodeRequest reads a named and a spelled-out schedule body
// with the field-table reader and with encoding/json, the decoder it
// replaced, so one run shows the ratio.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"named", []byte(sweepBody)},
		{"spelled-GoogLeNet", spelledRequest(models.GoogLeNet())},
	} {
		b.Run(c.name+"/reader", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				var req ScheduleRequest
				if err := decodeRequest(c.body, &req, scheduleRequestFields); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				var req ScheduleRequest
				if _, err := decodeJSONRef(c.body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
