package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
)

// tinyNetJSON is a fast custom network request payload: two small CONV
// layers that schedule in well under a millisecond.
const tinyNetJSON = `{
	"name": "tiny",
	"layers": [
		{"name": "l0", "n": 2, "h": 8, "l": 8, "m": 4, "k": 3, "s": 1, "p": 1},
		{"name": "l1", "n": 4, "h": 8, "l": 8, "m": 4, "k": 1, "s": 1, "p": 0}
	]
}`

// newTestServer returns a started httptest server over a fresh Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, ts
}

// post sends a JSON body and returns the response.
func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readBody drains and closes the response body.
func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScheduleCustomNetwork(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rana-Cache"); got != "miss" {
		t.Errorf("first request X-Rana-Cache = %q, want miss", got)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("body not a ScheduleResponse: %v\n%s", err, body)
	}
	if sr.Plan.Network != "tiny" || len(sr.Plan.Layers) != 2 {
		t.Errorf("plan = %q with %d layers", sr.Plan.Network, len(sr.Plan.Layers))
	}
	if sr.Accelerator != "test-accelerator" {
		t.Errorf("accelerator = %q", sr.Accelerator)
	}
	if sr.Controller != "Optimized" {
		t.Errorf("controller = %q, want the eDRAM default Optimized", sr.Controller)
	}

	// The same request again is a byte-identical cache hit.
	resp2 := post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`)
	body2 := readBody(t, resp2)
	if got := resp2.Header.Get("X-Rana-Cache"); got != "hit" {
		t.Errorf("second request X-Rana-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached response differs from computed response")
	}
}

func TestScheduleBenchmarkModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet"}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Plan.Network != "AlexNet" || len(sr.Plan.Layers) != 5 {
		t.Errorf("plan = %q with %d layers", sr.Plan.Network, len(sr.Plan.Layers))
	}
}

func TestScheduleMatchesGoldenEncoding(t *testing.T) {
	// The service's plan encoding must be the golden wire format:
	// compare field-for-field against a direct sched.Encode call.
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/schedule",
		`{"model": "AlexNet", "options": {"refresh_interval_ns": 734000}}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr struct {
		Plan json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want := goldenAlexNetPlan(t)
	if string(sr.Plan) != want {
		t.Errorf("service plan encoding drifted from sched.Encode:\ngot:  %.200s\nwant: %.200s", sr.Plan, want)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantErr          string
	}{
		{"empty", "/v1/schedule", `{}`, 400, `"model" or "network"`},
		{"both", "/v1/schedule", `{"model": "AlexNet", "network": ` + tinyNetJSON + `}`, 400, "not both"},
		{"unknown model", "/v1/schedule", `{"model": "LeNet"}`, 400, "unknown model"},
		{"unknown field", "/v1/schedule", `{"modle": "AlexNet"}`, 400, "invalid request body"},
		{"trailing data", "/v1/schedule", `{"model": "AlexNet"}{"model": "VGG"}`, 400, "trailing data"},
		{"trailing brace", "/v1/schedule", `{"model":"AlexNet"}}`, 400, "trailing data"},
		{"trailing brackets", "/v1/schedule", `{"model":"AlexNet"} ]]]}}`, 400, "trailing data"},
		{"bad layer", "/v1/schedule", `{"network": {"name": "x", "layers": [{"name": "l0", "n": -1, "h": 8, "l": 8, "m": 4, "k": 3, "s": 1}]}}`, 400, "invalid network"},
		{"bad pattern", "/v1/schedule", `{"model": "AlexNet", "options": {"patterns": ["XX"]}}`, 400, "invalid pattern"},
		{"bad controller", "/v1/schedule", `{"model": "AlexNet", "options": {"controller": "magic"}}`, 400, "invalid controller"},
		{"bad accelerator", "/v1/schedule", `{"model": "AlexNet", "accelerator": "tpu"}`, 400, "unknown accelerator"},
		{"bad tiling", "/v1/schedule", `{"model": "AlexNet", "options": {"fixed_tiling": {"tm": 0, "tn": 1, "tr": 1, "tc": 1}}}`, 400, "invalid fixed_tiling"},
		{"bad design", "/v1/evaluate", `{"design": "TPU", "model": "AlexNet"}`, 400, "unknown design"},
		{"no design", "/v1/evaluate", `{"model": "AlexNet"}`, 400, `needs a "design"`},
		{"compile empty", "/v1/compile", `{}`, 400, `"model" or "network"`},
		// A well-formed but unschedulable request: the fixed tiling
		// cannot fit any layer's core constraints.
		{"infeasible", "/v1/schedule", `{"model": "AlexNet", "options": {"fixed_tiling": {"tm": 4096, "tn": 4096, "tr": 64, "tc": 64}}}`, 422, "no feasible tiling"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL+tc.path, tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/schedule = %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != "POST" {
		t.Errorf("Allow = %q", resp.Header.Get("Allow"))
	}
}

func TestEvaluateDesignPoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/evaluate", `{"design": "RANA*(E-5)", "model": "AlexNet"}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Design != "RANA*(E-5)" || er.Network != "AlexNet" {
		t.Errorf("evaluated %q on %q", er.Design, er.Network)
	}
	if er.Energy.Total <= 0 {
		t.Error("non-positive total energy")
	}
	sum := er.Energy.Computing + er.Energy.BufferAccess + er.Energy.Refresh + er.Energy.OffChip
	if diff := sum - er.Energy.Total; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("breakdown sums to %g, total says %g", sum, er.Energy.Total)
	}
}

func TestCompileCustomNetwork(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/compile", `{"network": `+tinyNetJSON+`}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.TolerableRetentionNS != (734 * time.Microsecond).Nanoseconds() {
		t.Errorf("tolerable retention = %d ns, want 734 µs", cr.TolerableRetentionNS)
	}
	// The embedded artifact is the rana-sched -export format.
	var artifact struct {
		Version int    `json:"version"`
		Network string `json:"network"`
	}
	if err := json.Unmarshal(cr.Artifact, &artifact); err != nil {
		t.Fatalf("artifact not JSON: %v", err)
	}
	if artifact.Version != 1 || artifact.Network != "tiny" {
		t.Errorf("artifact = %+v", artifact)
	}
}

func TestHealthzAndCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Errorf("healthz = %s (%v)", body, err)
	}

	resp, err = http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Models       []string `json:"models"`
		Accelerators []string `json:"accelerators"`
		Designs      []string `json:"designs"`
	}
	if err := json.Unmarshal(readBody(t, resp), &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Models) != 4 || len(cat.Designs) != 6 {
		t.Errorf("catalog: %d models, %d designs", len(cat.Models), len(cat.Designs))
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`).Body.Close()
	post(t, ts.URL+"/v1/schedule", `{"network": `+tinyNetJSON+`}`).Body.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeMetrics(t, readBody(t, resp))
	if m["requests"] != 2 || m["cache_misses"] != 1 || m["cache_hits"] != 1 {
		t.Errorf("metrics = %v", m)
	}
}

// decodeMetrics parses the numeric fields of the /metrics document.
func decodeMetrics(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	out := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	// A computation that honors cancellation but would otherwise hang.
	s.scheduleFn = func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp := post(t, ts.URL+"/v1/schedule", `{"model": "AlexNet"}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

// goldenAlexNetPlan computes the wire encoding of AlexNet under the
// exact options the service defaults to, via a direct library call.
func goldenAlexNetPlan(t *testing.T) string {
	t.Helper()
	plan, err := sched.Schedule(models.AlexNet(), hw.TestAcceleratorEDRAM(), sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sched.Encode(plan))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
