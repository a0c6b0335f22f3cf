package sched

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

var update = flag.Bool("update", false, "rewrite the golden schedule files")

// The serialized regression view of a compiled schedule is the exported
// wire encoding (encode.go) — the same format `rana-sched -json` and the
// ranad serving API emit, so a golden diff here also means a wire-format
// change for every consumer.

// TestGoldenSchedules pins the full RANA design point's compiled schedule
// for every benchmark network under every search strategy. Exhaustive
// and Pruned share the `golden` files (branch-and-bound is argmin-
// preserving, so a split between them is itself a regression); Beam has
// its own `golden-beam` files since it trades schedule quality for a
// bounded per-layer budget. Any change to pattern selection, tiling
// search, refresh-flag computation or the energy model shows up as a
// golden diff; run `go test ./internal/sched -update` to accept it.
func TestGoldenSchedules(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}
	cases := []struct {
		strategy search.Strategy
		dir      string
		write    bool // which run regenerates the file under -update
	}{
		{search.Exhaustive, "golden", true},
		{search.Pruned, "golden", false},
		{search.Beam, "golden-beam", true},
	}
	for _, c := range cases {
		opts := opts
		opts.Search = c.strategy
		for _, net := range models.Benchmarks() {
			t.Run(string(c.strategy)+"/"+net.Name, func(t *testing.T) {
				plan, err := Schedule(net, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(Encode(plan), "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				// The serving encoder must spell the reference's bytes too;
				// checked before -update returns, so CI's golden gate (which
				// regenerates the files) covers it as well.
				wire, err := AppendPlanJSON(nil, plan)
				if err != nil {
					t.Fatal(err)
				}
				var served bytes.Buffer
				if err := json.Indent(&served, wire, "", "  "); err != nil {
					t.Fatalf("AppendPlanJSON is not JSON: %v", err)
				}
				served.WriteByte('\n')
				if served.String() != string(got) {
					t.Errorf("%s: AppendPlanJSON drifted from json.Marshal(Encode):\ngot:\n%s", net.Name, served.Bytes())
				}
				path := filepath.Join("testdata", c.dir, net.Name+".json")
				if *update && c.write {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if string(want) != string(got) {
					t.Errorf("%s schedule for %s drifted from %s; run `go test ./internal/sched -update` if intended.\ngot:\n%s",
						c.strategy, net.Name, path, got)
				}
			})
		}
	}
}

// TestAppendPlanJSONRejectsNonFiniteEnergy: json.Marshal refuses a NaN
// or infinite energy, and so must the serving encoder, leaving dst as it
// was instead of writing a NaN no JSON reader accepts.
func TestAppendPlanJSONRejectsNonFiniteEnergy(t *testing.T) {
	plan, err := Schedule(models.AlexNet(), hw.TestAcceleratorEDRAM(), Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		plan.Energy.Refresh = bad
		if _, err := json.Marshal(Encode(plan)); err == nil {
			t.Fatalf("reference marshalled energy %v", bad)
		}
		dst, err := AppendPlanJSON([]byte("kept"), plan)
		if err == nil || string(dst) != "kept" {
			t.Errorf("energy %v: got %q, %v; want dst unchanged and an error", bad, dst, err)
		}
	}
}
