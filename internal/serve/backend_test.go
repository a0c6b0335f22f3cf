package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestScheduleBackendOptions covers the backend axis of /v1/schedule:
// a non-default backend schedules and echoes its name on the plan, a
// pinned point rides the same path, and hostile specs are rejected at
// admission with a 400.
func TestScheduleBackendOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := post(t, ts.URL+"/v1/schedule",
		`{"network": `+tinyNetJSON+`, "options": {"backend": "approx-dram"}}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Plan.Backend != "approx-dram" {
		t.Errorf("plan backend = %q, want approx-dram", sr.Plan.Backend)
	}

	resp = post(t, ts.URL+"/v1/schedule",
		`{"network": `+tinyNetJSON+`, "options": {"backend": "approx-dram", "operating_point": "v0.8"}}`)
	body = readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("pinned point: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, l := range sr.Plan.Layers {
		if l.Point != "v0.8" {
			t.Errorf("layer %s op = %q, want v0.8", l.Name, l.Point)
		}
	}

	for name, req := range map[string]string{
		"unknown backend": `{"network": ` + tinyNetJSON + `, "options": {"backend": "nvram"}}`,
		"offchip backend": `{"network": ` + tinyNetJSON + `, "options": {"backend": "ddr3"}}`,
		"unknown point":   `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram", "operating_point": "v0.5"}}`,
		"over budget":     `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram", "operating_point": "v0.7"}}`,
		"bad budget":      `{"network": ` + tinyNetJSON + `, "options": {"error_budget": 2}}`,
	} {
		resp := post(t, ts.URL+"/v1/schedule", req)
		body := readBody(t, resp)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
	}

	// A raised budget clears the uniform admission check, but the point
	// still breaks the per-layer budgets — the error-budget rung serves
	// the nominal corner instead of failing (details in
	// TestScheduleBudgetFallbackRung).
	resp = post(t, ts.URL+"/v1/schedule",
		`{"network": `+tinyNetJSON+`, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`)
	body = readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("raised budget: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded {
		t.Error("over-layer-budget pin not degraded to the nominal corner")
	}
}

// TestBackendAllowlist: a configured allowlist narrows the backend
// axis — listed backends and the default adapter pass, everything else
// is a 400 — on both /v1/schedule and /v1/evaluate.
func TestBackendAllowlist(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowedBackends: []string{"approx-dram"}})

	for name, req := range map[string]string{
		"default adapter":  `{"network": ` + tinyNetJSON + `}`,
		"explicit default": `{"network": ` + tinyNetJSON + `, "options": {"backend": "edram"}}`,
		"listed backend":   `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram"}}`,
	} {
		resp := post(t, ts.URL+"/v1/schedule", req)
		if body := readBody(t, resp); resp.StatusCode != 200 {
			t.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
		}
	}

	resp := post(t, ts.URL+"/v1/schedule",
		`{"network": `+tinyNetJSON+`, "options": {"backend": "reram"}}`)
	if body := readBody(t, resp); resp.StatusCode != 400 {
		t.Errorf("unlisted backend: status %d, want 400: %s", resp.StatusCode, body)
	}
	resp = post(t, ts.URL+"/v1/evaluate",
		`{"design": "RANA*(E-5)", "network": `+tinyNetJSON+`, "backend": "reram"}`)
	if body := readBody(t, resp); resp.StatusCode != 400 {
		t.Errorf("unlisted evaluate backend: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestScheduleDefaultBackendSharesLegacyBytes: naming the default
// backend explicitly must be a cache hit on the legacy spelling's entry
// — same canonical key, byte-identical body.
func TestScheduleDefaultBackendSharesLegacyBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	legacy := readBody(t, post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`))
	resp := post(t, ts.URL+"/v1/schedule",
		`{"network": `+tinyNetJSON+`, "options": {"backend": "edram"}}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rana-Cache"); got != "hit" {
		t.Errorf("explicit default backend X-Rana-Cache = %q, want hit", got)
	}
	if string(legacy) != string(body) {
		t.Error("explicit default backend body differs from the legacy spelling")
	}
}

// TestCatalogListsBackends: the catalog exposes the backend × point
// matrix.
func TestCatalogListsBackends(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var doc struct {
		Backends []BackendJSON `json:"backends"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	byName := map[string]BackendJSON{}
	for _, b := range doc.Backends {
		byName[b.Name] = b
	}
	for _, want := range []string{"edram", "sram", "approx-dram", "reram", "ddr3"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("catalog missing backend %q", want)
		}
	}
	if got := len(byName["approx-dram"].Points); got != 4 {
		t.Errorf("approx-dram has %d catalog points, want 4", got)
	}
	if byName["ddr3"].Role != "offchip" {
		t.Errorf("ddr3 role = %q", byName["ddr3"].Role)
	}
	if !byName["edram"].Refreshes || byName["sram"].Refreshes {
		t.Error("refresh semantics wrong in catalog")
	}
}

// TestEvaluateBackendMatrix: /v1/evaluate prices a design through a
// non-default backend and keys the cache on the backend axis.
func TestEvaluateBackendMatrix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := readBody(t, post(t, ts.URL+"/v1/evaluate",
		`{"design": "RANA*(E-5)", "network": `+tinyNetJSON+`}`))

	resp := post(t, ts.URL+"/v1/evaluate",
		`{"design": "RANA*(E-5)", "network": `+tinyNetJSON+`, "backend": "reram"}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if string(base) == string(body) {
		t.Error("reram evaluation shares bytes with the default backend")
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Energy.Wear <= 0 {
		t.Errorf("reram evaluation reports wear %g, want > 0", er.Energy.Wear)
	}
	if er.Plan.Backend != "reram" {
		t.Errorf("plan backend = %q", er.Plan.Backend)
	}

	resp = post(t, ts.URL+"/v1/evaluate",
		`{"design": "RANA*(E-5)", "network": `+tinyNetJSON+`, "backend": "nvram"}`)
	if readBody(t, resp); resp.StatusCode != 400 {
		t.Errorf("unknown backend: status %d, want 400", resp.StatusCode)
	}
}

// TestTinyRefreshIntervalIsBadRequest: an interval the v0.9 point's
// retention scale truncates to zero is rejected at admission with a 400
// naming that point, instead of reaching refresh pricing.
func TestTinyRefreshIntervalIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/schedule", `{"model":"AlexNet","options":{"backend":"approx-dram","refresh_interval_ns":1}}`)
	body := string(readBody(t, resp))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "approx-dram@v0.9") || strings.Contains(body, "panic") {
		t.Fatalf("body %s does not name the point, or reports a panic", body)
	}
}
