package main

// Output checks. None of them asks ranad's own code whether a response
// is right: plans of the zoo at the default options are compared byte
// for byte with the committed golden files, every other response is
// decoded here and checked against what the request asked for, cache
// hits must repeat the bytes of the response that filled the cache, and
// the traced run recomputes a sample of sweep plans with the exhaustive
// strategy.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenDir is where the golden plans live, relative to the repository
// root.
const goldenDir = "internal/sched/testdata/golden"

// loadGoldens reads the golden plan of every zoo network.
func loadGoldens(root string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, net := range zoo {
		b, err := os.ReadFile(filepath.Join(root, goldenDir, net.Name+".json"))
		if err != nil {
			return nil, fmt.Errorf("reading golden plan: %w", err)
		}
		out[net.Name] = b
	}
	return out, nil
}

// checkGolden compares a served plan (compact JSON) with a golden file
// (the same encoding indented by two spaces, newline-terminated).
func checkGolden(plan, golden []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, plan, "", "  "); err != nil {
		return fmt.Errorf("plan is not JSON: %v", err)
	}
	buf.WriteByte('\n')
	got := buf.Bytes()
	if bytes.Equal(got, golden) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(golden) && got[i] == golden[i] {
		i++
	}
	return fmt.Errorf("plan differs from the golden file at byte %d", i)
}

// Decoded views of response bodies: only the fields the checks read.
type (
	planView struct {
		Network string `json:"network"`
		Layers  []struct {
			Name string `json:"name"`
		} `json:"layers"`
	}
	scheduleView struct {
		RefreshIntervalNS int64           `json:"refresh_interval_ns"`
		Plan              json.RawMessage `json:"plan"`
		Degraded          bool            `json:"degraded"`
	}
	compileView struct {
		Artifact json.RawMessage `json:"artifact"`
		Plan     json.RawMessage `json:"plan"`
	}
	evaluateView struct {
		Network string          `json:"network"`
		Plan    json.RawMessage `json:"plan"`
	}
)

// checkPlan checks a plan's network name and its layer names, in order.
func checkPlan(raw json.RawMessage, r *request) error {
	var p planView
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("plan: %v", err)
	}
	net := r.network()
	if p.Network != net.Name {
		return fmt.Errorf("plan is for network %q, want %q", p.Network, net.Name)
	}
	if len(p.Layers) != len(net.Layers) {
		return fmt.Errorf("plan has %d layers, want %d", len(p.Layers), len(net.Layers))
	}
	for i, l := range p.Layers {
		if l.Name != net.Layers[i].Name {
			return fmt.Errorf("plan layer %d is %q, want %q", i, l.Name, net.Layers[i].Name)
		}
	}
	return nil
}

// checkBody checks a 200 response body against its request: the plan's
// network and layers, the echoed refresh interval and, where the
// degradation ladder must act, the degraded marker. Golden requests are
// compared with their golden file.
func checkBody(body []byte, r *request, goldens map[string][]byte) error {
	switch r.Endpoint {
	case "/v1/schedule":
		var v scheduleView
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("schedule response: %v", err)
		}
		if v.Degraded != r.Sched.degraded() {
			return fmt.Errorf("degraded = %v, want %v", v.Degraded, r.Sched.degraded())
		}
		if want := r.Sched.IntervalNS; want != 0 && r.Sched.Controller != "none" && r.Sched.Accelerator == "" &&
			v.RefreshIntervalNS != want {
			return fmt.Errorf("refresh_interval_ns = %d, want %d", v.RefreshIntervalNS, want)
		}
		if r.Sched.isDefault() {
			if err := checkGolden(v.Plan, goldens[r.network().Name]); err != nil {
				return err
			}
		}
		return checkPlan(v.Plan, r)
	case "/v1/compile":
		var v compileView
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("compile response: %v", err)
		}
		if len(v.Artifact) == 0 {
			return fmt.Errorf("compile response has no artifact")
		}
		return checkPlan(v.Plan, r)
	case "/v1/evaluate":
		var v evaluateView
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("evaluate response: %v", err)
		}
		if v.Network != r.network().Name {
			return fmt.Errorf("evaluated network %q, want %q", v.Network, r.network().Name)
		}
		return checkPlan(v.Plan, r)
	}
	return fmt.Errorf("unknown endpoint %q", r.Endpoint)
}

// planOf extracts the plan of a /v1/schedule response body.
func planOf(body []byte) (json.RawMessage, error) {
	var v scheduleView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return v.Plan, nil
}
