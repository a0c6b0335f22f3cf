package serve

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rana/internal/models"
)

// TestSharedZooStaysReadOnly: a request naming a zoo model resolves to
// models.ByName's shared table, not to a copy. Concurrent schedule,
// compile and evaluate requests for all four networks through one
// server — the approximate backend included, whose per-layer budgets
// read the layer names — must leave that table exactly as
// models.Benchmarks builds it, each Layers slice still clipped.
func TestSharedZooStaysReadOnly(t *testing.T) {
	// Room for every request at once: none of them may be shed.
	_, ts := newTestServer(t, Config{QueueDepth: 64})
	var wg sync.WaitGroup
	for _, net := range models.Benchmarks() {
		model := `"model": "` + net.Name + `"`
		for _, req := range []struct{ path, body string }{
			{"/v1/schedule", `{` + model + `}`},
			{"/v1/compile", `{` + model + `}`},
			{"/v1/evaluate", `{"design": "RANA*(E-5)", ` + model + `}`},
			{"/v1/evaluate", `{"design": "RANA*(E-5)", "backend": "approx-dram", ` + model + `}`},
		} {
			wg.Add(1)
			go func(path, body string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s %s: status %d (%v): %.200s", path, body, resp.StatusCode, err, b)
				}
			}(req.path, req.body)
		}
	}
	wg.Wait()
	for _, want := range models.Benchmarks() {
		got, ok := models.ByName(want.Name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("models.ByName(%s) no longer matches models.Benchmarks()", want.Name)
		}
		if cap(got.Layers) != len(got.Layers) {
			t.Errorf("models.ByName(%s): cap %d != len %d", want.Name, cap(got.Layers), len(got.Layers))
		}
	}
}
