package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"rana/internal/core"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/retention"
	"rana/internal/training"
)

// Tests for the fault-admission surface of the API: the error-budget
// rung of the degradation ladder, the resilience frame on /v1/evaluate
// and /v1/catalog, and the fault counters.

// admissionConstraint is the relative-accuracy constraint the server
// admits approximate operating points at: Stage 1's default.
const admissionConstraint = core.DefaultAccuracyConstraint

// metricsDoc fetches and decodes the /metrics document.
func metricsDoc(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(readBody(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func metricInt(t *testing.T, doc map[string]json.RawMessage, name string) int64 {
	t.Helper()
	var v int64
	if err := json.Unmarshal(doc[name], &v); err != nil {
		t.Fatalf("metric %s: %v (%s)", name, err, doc[name])
	}
	return v
}

// TestScheduleBudgetFallbackRung: a pinned point that clears the
// client's raised uniform budget but breaks a per-layer budget is not
// failed — the ladder substitutes the nominal corner and marks the
// response degraded with the fixed budget-fallback reason.
func TestScheduleBudgetFallbackRung(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`

	resp := post(t, ts.URL+"/v1/schedule", req)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded || sr.DegradedReason != budgetFallbackReason {
		t.Errorf("degraded = %v reason = %q, want budget-fallback marker", sr.Degraded, sr.DegradedReason)
	}
	if sr.Search == "" {
		t.Error("budget-fallback response lost the search echo (the full search ran)")
	}
	// Plans normalize the nominal corner to the empty point on the wire.
	for _, l := range sr.Plan.Layers {
		if mem.NormalizePoint(l.Point) != "" {
			t.Errorf("layer %s op = %q, want the nominal corner", l.Name, l.Point)
		}
	}

	doc := metricsDoc(t, ts.URL)
	if got := metricInt(t, doc, "budget_rejections"); got != 1 {
		t.Errorf("budget_rejections = %d, want 1", got)
	}
	if got := metricInt(t, doc, "degraded"); got != 1 {
		t.Errorf("degraded = %d, want 1", got)
	}
	// The substituted plan sits at the nominal corner — no injection.
	if got := metricInt(t, doc, "fault_injections"); got != 0 {
		t.Errorf("fault_injections = %d, want 0", got)
	}

	// The rung caches under its own op string: replaying the request is a
	// byte-identical hit, not a collision with a genuine nominal pin.
	resp = post(t, ts.URL+"/v1/schedule", req)
	again := readBody(t, resp)
	if got := resp.Header.Get("X-Rana-Cache"); got != "hit" {
		t.Errorf("replay X-Rana-Cache = %q, want hit", got)
	}
	if string(again) != string(body) {
		t.Error("replayed budget-fallback body differs")
	}

	// A genuine nominal pin must produce a distinct, non-degraded body.
	resp = post(t, ts.URL+"/v1/schedule",
		`{"network": `+tinyNetJSON+`, "options": {"backend": "approx-dram", "operating_point": "nominal"}}`)
	nominal := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("nominal pin: status %d: %s", resp.StatusCode, nominal)
	}
	if string(nominal) == string(body) {
		t.Error("nominal-pinned body collides with the budget-fallback body")
	}
}

// TestScheduleFaultInjectionCounter: admitting a plan that places data
// at a fault-exposed point bumps fault_injections, once per computation
// (cache hits replay bytes, not injections).
func TestScheduleFaultInjectionCounter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"network": ` + tinyNetJSON + `, "options": {"backend": "approx-dram", "operating_point": "v0.9"}}`

	resp := post(t, ts.URL+"/v1/schedule", req)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Degraded {
		t.Errorf("admissible point degraded: %s", sr.DegradedReason)
	}
	for _, l := range sr.Plan.Layers {
		if l.Point != "v0.9" {
			t.Errorf("layer %s op = %q, want v0.9", l.Name, l.Point)
		}
	}
	readBody(t, post(t, ts.URL+"/v1/schedule", req)) // cache hit: no new injection

	doc := metricsDoc(t, ts.URL)
	if got := metricInt(t, doc, "fault_injections"); got != 1 {
		t.Errorf("fault_injections = %d, want 1", got)
	}
	if got := metricInt(t, doc, "budget_rejections"); got != 0 {
		t.Errorf("budget_rejections = %d, want 0", got)
	}
}

// TestEvaluateResilienceFrame: evaluations on the approximate axis
// carry the error-budget frame; the legacy and default paths stay
// frame-free.
func TestEvaluateResilienceFrame(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := post(t, ts.URL+"/v1/evaluate",
		`{"design": "RANA*(E-5)", "network": `+tinyNetJSON+`, "backend": "approx-dram", "operating_point": "v0.9"}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Resilience == nil {
		t.Fatal("approximate-axis evaluation carries no resilience frame")
	}
	if er.Resilience.Constraint != admissionConstraint {
		t.Errorf("constraint = %g, want %g", er.Resilience.Constraint, admissionConstraint)
	}
	if er.Resilience.ErrorBudget != retention.TolerableFailureRate {
		t.Errorf("error budget = %g, want %g", er.Resilience.ErrorBudget, retention.TolerableFailureRate)
	}
	for _, name := range []string{"l0", "l1"} {
		if b, ok := er.Resilience.LayerBudgets[name]; !ok || b <= 0 {
			t.Errorf("layer %s budget = %g (present %v)", name, b, ok)
		}
	}

	// Default-backend evaluation: no frame, legacy bytes.
	resp = post(t, ts.URL+"/v1/evaluate", `{"design": "RANA*(E-5)", "network": `+tinyNetJSON+`}`)
	body = readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("default: status %d: %s", resp.StatusCode, body)
	}
	var def EvaluateResponse
	if err := json.Unmarshal(body, &def); err != nil {
		t.Fatal(err)
	}
	if def.Resilience != nil {
		t.Error("default-backend evaluation grew a resilience frame")
	}

	// The over-budget corner stays a 400 at admission.
	resp = post(t, ts.URL+"/v1/evaluate",
		`{"design": "RANA*(E-5)", "network": `+tinyNetJSON+`, "backend": "approx-dram", "operating_point": "v0.7"}`)
	if body := readBody(t, resp); resp.StatusCode != 400 {
		t.Errorf("over-budget point: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestLayerBudgetsNeverBelowUniform: every layer budget serve derives is
// at least the uniform budget evaluate resolves its points under, for
// the zoo and for an unknown model (the most sensitive curve) at every
// depth from 1 to 200. That is why evaluate admits no layer on its own:
// with no layer budget below the uniform one, a layer's admission is the
// uniform admission.
func TestLayerBudgetsNeverBelowUniform(t *testing.T) {
	nets := models.Benchmarks()
	for depth := 1; depth <= 200; depth++ {
		net := models.Network{Name: "Unknown", Layers: make([]models.ConvLayer, depth)}
		for i := range net.Layers {
			net.Layers[i].Name = fmt.Sprintf("l%d", i)
		}
		nets = append(nets, net)
	}
	for _, net := range nets {
		budgets, err := core.LayerBudgets(net, admissionConstraint, training.PaperRates)
		if err != nil {
			t.Fatal(err)
		}
		if len(budgets) != len(net.Layers) {
			t.Errorf("%s at depth %d: %d budgets", net.Name, len(net.Layers), len(budgets))
		}
		for name, b := range budgets {
			if b < retention.TolerableFailureRate {
				t.Errorf("%s at depth %d, layer %s: budget %g below the uniform %g",
					net.Name, len(net.Layers), name, b, retention.TolerableFailureRate)
			}
		}
	}
}

// TestCatalogResilience: the catalog advertises the admission frame —
// constraint, uniform budget, the Stage 1 ladder, and per-benchmark
// layer budgets.
func TestCatalogResilience(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Resilience struct {
			Constraint   float64                       `json:"constraint"`
			ErrorBudget  float64                       `json:"error_budget"`
			Ladder       []float64                     `json:"ladder"`
			LayerBudgets map[string]map[string]float64 `json:"layer_budgets"`
		} `json:"resilience"`
	}
	if err := json.Unmarshal(readBody(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	r := doc.Resilience
	if r.Constraint != admissionConstraint {
		t.Errorf("constraint = %g, want %g", r.Constraint, admissionConstraint)
	}
	if r.ErrorBudget != retention.TolerableFailureRate {
		t.Errorf("error budget = %g, want %g", r.ErrorBudget, retention.TolerableFailureRate)
	}
	if len(r.Ladder) == 0 {
		t.Error("empty failure-rate ladder")
	}
	for _, model := range []string{"AlexNet", "VGG", "GoogLeNet", "ResNet"} {
		budgets := r.LayerBudgets[model]
		if len(budgets) == 0 {
			t.Errorf("no layer budgets for %s", model)
			continue
		}
		for name, b := range budgets {
			if b < retention.TolerableFailureRate {
				t.Errorf("%s/%s budget %g below the uniform budget — admission would tighten the default path", model, name, b)
			}
		}
	}
}
