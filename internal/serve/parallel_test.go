package serve

// Tests for the parallelism/memo surface of the API: request validation,
// the knob's exclusion from the cache key, the shared memo's /metrics
// counters, and the degradation ladder composing with pinned worker
// counts.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"rana/internal/sched"
	"rana/internal/sched/search"
)

func TestParallelismValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, url, body string
	}{
		{"schedule negative", "/v1/schedule", `{"model": "AlexNet", "options": {"parallelism": -1}}`},
		{"schedule over cap", "/v1/schedule", fmt.Sprintf(`{"model": "AlexNet", "options": {"parallelism": %d}}`, sched.MaxParallelism+1)},
		{"compile negative", "/v1/compile", `{"model": "AlexNet", "parallelism": -2}`},
		{"compile over cap", "/v1/compile", fmt.Sprintf(`{"model": "AlexNet", "parallelism": %d}`, sched.MaxParallelism+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+tc.url, tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != 400 {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "parallelism") {
				t.Errorf("error body %s does not mention parallelism", body)
			}
		})
	}
}

func TestParallelismIsNotACacheKeyComponent(t *testing.T) {
	// Plans are byte-identical at every worker count, so requests that
	// differ only in parallelism must share one cache entry.
	_, ts := newTestServer(t, Config{})
	resp, _ := scheduleTiny(t, ts.URL, ``)
	if got := resp.Header.Get("X-Rana-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}
	first := readBodyOfTiny(t, ts.URL, `, "options": {"parallelism": 2}`, "hit")
	second := readBodyOfTiny(t, ts.URL, `, "options": {"parallelism": 1}`, "hit")
	if first != second {
		t.Error("responses differ across parallelism levels")
	}
}

// readBodyOfTiny posts the tiny schedule with extra fields, asserts the
// cache disposition, and returns the body bytes as a string.
func readBodyOfTiny(t *testing.T, url, extra, wantCache string) string {
	t.Helper()
	resp := post(t, url+"/v1/schedule", `{"network": `+tinyNetJSON+extra+`}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rana-Cache"); got != wantCache {
		t.Fatalf("cache = %q, want %q", got, wantCache)
	}
	return string(body)
}

func TestMetricsExposeMemoAndParallelism(t *testing.T) {
	_, ts := newTestServer(t, Config{Parallelism: 2})
	post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`).Body.Close()
	post(t, ts.URL+"/v1/schedule", `{"model": "ResNet"}`).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(readBody(t, resp), &raw); err != nil {
		t.Fatal(err)
	}
	misses, _ := raw["memo_misses"].(float64)
	if misses <= 0 {
		t.Errorf("memo_misses = %v, want > 0", raw["memo_misses"])
	}
	hits, _ := raw["memo_hits"].(float64)
	if hits <= 0 {
		t.Errorf("memo_hits = %v, want > 0 (ResNet repeats shapes)", raw["memo_hits"])
	}
	entries, _ := raw["memo_entries"].(float64)
	if entries <= 0 || entries != misses {
		t.Errorf("memo_entries = %v, want equal to the %v misses", raw["memo_entries"], misses)
	}
	// The default memo has room for every shape, so it records every
	// exploration.
	if unrecorded, ok := raw["memo_unrecorded"].(float64); !ok || unrecorded != 0 {
		t.Errorf("memo_unrecorded = %v, want 0", raw["memo_unrecorded"])
	}
	// Both computations ran at the server default of 2 workers.
	pm, _ := raw["parallelism"].(map[string]any)
	if got, _ := pm["2"].(float64); got != 2 {
		t.Errorf("parallelism histogram = %v, want 2 computations at level 2", raw["parallelism"])
	}
	// Nothing fell below a frontier yet. AlexNet at the 734 µs default
	// builds its five shapes there; 500 µs rebuilds each of them once,
	// down to the conventional 45 µs, so 300 µs rebuilds nothing.
	if got, ok := raw["memo_rebuilds"].(float64); !ok || got != 0 {
		t.Errorf("memo_rebuilds = %v, want 0", raw["memo_rebuilds"])
	}
	for _, body := range []string{
		`{"model": "AlexNet"}`,
		`{"model": "AlexNet", "options": {"refresh_interval_ns": 500000}}`,
		`{"model": "AlexNet", "options": {"refresh_interval_ns": 300000}}`,
	} {
		post(t, ts.URL+"/v1/schedule", body).Body.Close()
	}
	if got := memoCounters(t, ts.URL)["memo_rebuilds"]; got != 5 {
		t.Errorf("memo_rebuilds = %v after AlexNet at 734, 500 and 300 µs, want 5", got)
	}
}

func TestMemoSharedAcrossRequests(t *testing.T) {
	// Distinct cache keys for the same model still share layer shapes:
	// the second computation should be served almost entirely from the
	// server-wide memo.
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet"}`).Body.Close()
	before := memoCounters(t, ts.URL)
	// A different refresh interval is a different cache key but the same
	// memo frame; a different search strategy over the same options
	// re-explores. Pin exhaustive to force a fresh computation with fresh
	// memo keys, then repeat it: the repeat's layers all hit.
	post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet", "options": {"search": "exhaustive"}}`).Body.Close()
	post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet", "options": {"search": "exhaustive", "parallelism": 3}}`).Body.Close()
	after := memoCounters(t, ts.URL)
	if after["memo_hits"] != before["memo_hits"] {
		// The two exhaustive requests share one cache entry (parallelism
		// is not a key component), so no extra memo traffic happened at
		// all — that is the stronger dedup and also acceptable.
		t.Logf("memo hits moved %v -> %v", before["memo_hits"], after["memo_hits"])
	}
	if after["memo_misses"] <= before["memo_misses"] {
		t.Errorf("exhaustive re-exploration added no memo misses: %v -> %v", before, after)
	}
}

// memoCounters fetches the memo gauges from /metrics.
func memoCounters(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return decodeMetrics(t, readBody(t, resp))
}

func TestMemoDisabled(t *testing.T) {
	// MemoEntries < 0 turns the server-wide memo off entirely; the memo
	// gauges disappear from /metrics rather than reading zero forever.
	_, ts := newTestServer(t, Config{MemoEntries: -1})
	post(t, ts.URL+"/v1/schedule", `{"model": "ResNet"}`).Body.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(readBody(t, resp), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["memo_hits"]; ok {
		t.Error("memo gauges exported with the memo disabled")
	}
}

func TestBeamRungComposesWithParallelism(t *testing.T) {
	// A deadline inside the beam budget selects the beam rung, and a
	// pinned parallelism rides along: the computation fans out across the
	// pinned workers, the response reports the beam strategy, and the
	// plan stays a real (non-degraded) schedule.
	_, ts := newTestServer(t, Config{
		DegradeBudget: 50 * time.Millisecond,
		BeamBudget:    time.Hour,
	})
	_, sr := scheduleTiny(t, ts.URL, `, "deadline_ms": 30000, "options": {"parallelism": 2}`)
	if sr.Degraded {
		t.Fatal("beam rung must not be the degraded fallback")
	}
	if sr.Search != string(search.Beam) {
		t.Errorf("search = %q, want %q", sr.Search, search.Beam)
	}
	if len(sr.Plan.Layers) != 2 {
		t.Errorf("beam+parallel plan has %d layers, want 2", len(sr.Plan.Layers))
	}
	m := memoCounters(t, ts.URL)
	if m["memo_misses"] <= 0 {
		t.Errorf("beam rung bypassed the shared memo: %v", m)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(readBody(t, resp), &raw); err != nil {
		t.Fatal(err)
	}
	pm, _ := raw["parallelism"].(map[string]any)
	if got, _ := pm["2"].(float64); got != 1 {
		t.Errorf("parallelism histogram = %v, want the beam computation counted at level 2", raw["parallelism"])
	}

	// The degraded bottom rung skips the search entirely, so it must not
	// count a parallelism level.
	_, sr = scheduleTiny(t, ts.URL, `, "deadline_ms": 40, "options": {"parallelism": 2}`)
	if !sr.Degraded {
		t.Fatal("deadline below the degrade budget must degrade")
	}
}

// TestMetricsExposeMemoRecords: /metrics reports the frontier records
// the shared memo holds, the quantity its capacity bounds.
func TestMetricsExposeMemoRecords(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet"}`).Body.Close()
	m := memoCounters(t, ts.URL)
	if m["memo_records"] < m["memo_entries"] || m["memo_entries"] <= 0 {
		t.Errorf("memo_records = %v for %v entries, want at least one record per entry", m["memo_records"], m["memo_entries"])
	}
}
