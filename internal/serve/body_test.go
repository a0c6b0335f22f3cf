package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/sched"
)

// TestScheduleBodyMatchesMarshal holds the reflection-free schedule body
// to the reference rendering, marshalBody(ScheduleResponse{...}) with
// the plan through sched.Encode, on every rung of the ladder: the full
// search, the beam rung, the degraded fallback and the budget fallback
// (an approximate backend, so the plan carries a backend and per-layer
// operating points), plus names that need JSON escaping.
func TestScheduleBodyMatchesMarshal(t *testing.T) {
	edram := hw.TestAcceleratorEDRAM()
	escaped, err := json.Marshal(ScheduleRequest{
		Network: &NetworkSpec{Name: `<tiny> & "co" ` + "  日本", Layers: []LayerSpec{
			{Name: "l<0>&\x01", N: 2, H: 8, L: 8, M: 4, K: 3, S: 1, P: 1},
			{Name: "lé", N: 4, H: 8, L: 8, M: 4, K: 1, S: 1},
		}},
		Config: &ConfigSpec{
			Name: "edram <&> é", ArrayM: edram.ArrayM, ArrayN: edram.ArrayN,
			FrequencyHz: edram.FrequencyHz, LocalInput: edram.LocalInput,
			LocalOutput: edram.LocalOutput, LocalWeight: edram.LocalWeight,
			BufferWords: edram.BufferWords, BufferTech: "edram", BankWords: edram.BankWords,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// marker is a fragment the body must hold, so each case is on its rung.
	cases := []struct {
		name, marker string
		cfg          Config
		body         string
	}{
		{"full", `"search":"pruned"}`, Config{}, `{"model": "AlexNet"}`},
		{"beam-rung", `"search":"beam"}`, Config{DegradeBudget: 50 * time.Millisecond, BeamBudget: time.Hour},
			`{"model": "AlexNet", "deadline_ms": 30000}`},
		{"degraded", `"degraded":true,"degraded_reason":"deadline`, Config{DegradeBudget: time.Hour},
			`{"model": "AlexNet", "deadline_ms": 30000}`},
		{"budget-fallback", `"backend":"approx-dram"`, Config{}, `{"network": ` + tinyNetJSON +
			`, "options": {"backend": "approx-dram", "operating_point": "v0.7", "error_budget": 0.001}}`},
		{"escaped", `"network":"\u003ctiny\u003e \u0026`, Config{}, string(escaped)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			var mu sync.Mutex
			var plan *sched.Plan
			s.scheduleFn = func(ctx context.Context, net models.Network, cfg hw.Config, opts sched.Options) (*sched.Plan, error) {
				p, err := sched.ScheduleContext(ctx, net, cfg, opts)
				mu.Lock()
				plan = p
				mu.Unlock()
				return p, err
			}
			resp := post(t, ts.URL+"/v1/schedule", tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != 200 {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var sr ScheduleResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			sr.Plan = sched.Encode(plan)
			mu.Unlock()
			want, err := marshalBody(sr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(body, []byte(tc.marker)) {
				t.Errorf("body lacks %s: %s", tc.marker, body)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("served body differs from marshalBody:\n got %s\nwant %s", body, want)
			}
		})
	}
}
