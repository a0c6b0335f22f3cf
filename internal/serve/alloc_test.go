package serve

import (
	"context"
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
