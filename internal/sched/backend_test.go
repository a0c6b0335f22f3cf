package sched

import (
	"encoding/json"
	"strings"
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/retention"
)

func TestLayerBudgetResolution(t *testing.T) {
	o := Options{LayerBudgets: map[string]float64{
		"tight": 1e-7,
		"loose": 1e-2,
		"zero":  0,
	}}
	// Unlisted layer: the uniform default.
	if got := o.layerBudget("other"); got != retention.TolerableFailureRate {
		t.Errorf("unlisted layer budget = %g, want %g", got, retention.TolerableFailureRate)
	}
	// Listed tighter budget wins.
	if got := o.layerBudget("tight"); got != 1e-7 {
		t.Errorf("tight layer budget = %g, want 1e-7", got)
	}
	// A looser per-layer entry never loosens the uniform budget.
	if got := o.layerBudget("loose"); got != retention.TolerableFailureRate {
		t.Errorf("loose layer budget = %g, want uniform %g", got, retention.TolerableFailureRate)
	}
	// Zero entries are ignored, not treated as "no faults allowed".
	if got := o.layerBudget("zero"); got != retention.TolerableFailureRate {
		t.Errorf("zero layer budget = %g, want uniform %g", got, retention.TolerableFailureRate)
	}
	// A raised uniform budget is still tightened per layer.
	o.ErrorBudget = 1e-3
	if got := o.layerBudget("tight"); got != 1e-7 {
		t.Errorf("tight budget under raised uniform = %g, want 1e-7", got)
	}
	if got := o.layerBudget("other"); got != 1e-3 {
		t.Errorf("unlisted under raised uniform = %g, want 1e-3", got)
	}
}

func TestResolveBackendForLayerAdmission(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	o := Options{
		Backend:      "approx-dram",
		LayerBudgets: map[string]float64{"head": 1e-8},
	}
	// Default budget: nominal (BER 0), v0.9 (1e-7), v0.8 (1e-5) admit;
	// v0.7 (2e-4) does not.
	_, pts, err := ResolveBackendForLayer(cfg, o, "body")
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	if len(pts) != 3 {
		t.Fatalf("body admits %d points, want 3", len(pts))
	}
	// The head's own curve tolerates less: only nominal survives.
	_, pts, err = ResolveBackendForLayer(cfg, o, "head")
	if err != nil {
		t.Fatalf("head: %v", err)
	}
	if len(pts) != 1 || pts[0].BitErrorRate != 0 {
		t.Fatalf("head admits %v, want nominal only", pts)
	}
	// Pinning a point the layer budget rejects errors and names the layer.
	o.OperatingPoint = "v0.9"
	if _, _, err = ResolveBackendForLayer(cfg, o, "head"); err == nil {
		t.Fatal("pinned over-layer-budget point admitted")
	} else if !strings.Contains(err.Error(), `for layer "head"`) {
		t.Errorf("error does not name the layer: %v", err)
	}
	// The same pin is fine on a layer without a tightened budget.
	if _, _, err = ResolveBackendForLayer(cfg, o, "body"); err != nil {
		t.Fatalf("body pin: %v", err)
	}
	// Without per-layer budgets, ResolveBackendForLayer is ResolveBackend.
	o = Options{Backend: "approx-dram"}
	_, a, err := ResolveBackend(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := ResolveBackendForLayer(cfg, o, "whatever")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("point sets differ: %d vs %d", len(a), len(b))
	}
}

func TestValidateLayerBudgets(t *testing.T) {
	o := ranaOpts()
	o.LayerBudgets = map[string]float64{"l0": 2}
	if err := o.Validate(); err == nil {
		t.Error("budget 2 validated")
	}
	o.LayerBudgets = map[string]float64{"l0": -0.1}
	if err := o.Validate(); err == nil {
		t.Error("negative budget validated")
	}
	o.LayerBudgets = map[string]float64{"l0": 1e-5, "l1": 0}
	if err := o.Validate(); err != nil {
		t.Errorf("valid budgets rejected: %v", err)
	}
}

func TestMemoKeySeparatesLayerBudgets(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l := models.ConvLayer{Name: "a", N: 3, H: 8, L: 8, M: 4, K: 3, S: 1, P: 1}
	same := l
	same.Name = "b"
	base := ranaOpts()

	// Without budgets, same-shaped layers share a key (the memo's whole
	// point).
	if testKey(l, cfg, base) != testKey(same, cfg, base) {
		t.Fatal("same-shaped layers have different keys without budgets")
	}

	budgeted := base
	budgeted.LayerBudgets = map[string]float64{"a": 1e-7}
	// Layer "a" is tightened, layer "b" is not: their keys must split so
	// a memo hit cannot leak a plan across different admission spaces.
	if testKey(l, cfg, budgeted) == testKey(same, cfg, budgeted) {
		t.Fatal("different layer budgets collapsed onto one memo key")
	}
	// Two layers resolving to the same budget still share.
	both := base
	both.LayerBudgets = map[string]float64{"a": 1e-7, "b": 1e-7}
	if testKey(l, cfg, both) != testKey(same, cfg, both) {
		t.Fatal("equal resolved budgets should share a key")
	}
	// Budgets are invisible to the options JSON projection (the serving
	// layer keys them explicitly).
	js, err := json.Marshal(budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), "1e-07") {
		t.Error("LayerBudgets leaked into the options JSON projection")
	}
}

func TestScheduleWithLayerBudgetsDefaultIsByteIdentical(t *testing.T) {
	// The core pipeline attaches per-layer budgets derived at the
	// default 0.995 constraint; every such budget is ≥ the uniform
	// 1e-5, so plans must be byte-identical with and without them.
	cfg := hw.TestAcceleratorEDRAM()
	net := models.AlexNet()
	opts := ranaOpts()
	plain, err := Schedule(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	budgets := make(map[string]float64, len(net.Layers))
	for _, l := range net.Layers {
		budgets[l.Name] = retention.TolerableFailureRate
	}
	opts.LayerBudgets = budgets
	budgeted, err := Schedule(net, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(Encode(plain))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Encode(budgeted))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("default-equivalent layer budgets changed plan bytes")
	}
}
