package serve

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/training"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/keys.txt from the current key functions")

// keySpellings are the option spellings the key fixture pins: defaults
// omitted and spelled out (which must collapse), the enlarged axes, an
// approximate backend (which attaches per-layer budgets) and a pinned
// nominal point (which must not collapse onto the open ladder).
var keySpellings = []struct {
	name string
	spec *OptionsSpec
}{
	{"omitted", nil},
	{"spelled", &OptionsSpec{
		Patterns:          []string{"OD", "WD"},
		RefreshIntervalNS: int64(retention.TolerableRetentionTime),
		Controller:        "optimized",
		Search:            "pruned",
		Backend:           "edram",
		Traversal:         "linear",
		Mapping:           "row-major",
	}},
	{"rtc-all", &OptionsSpec{Traversal: "rtc", Mapping: "all"}},
	{"approx-dram", &OptionsSpec{Backend: "approx-dram"}},
	{"nominal", &OptionsSpec{OperatingPoint: "nominal"}},
}

// keyFixture renders every pinned key, one "op model spelling key" line
// each, in a fixed order.
func keyFixture(t *testing.T) []string {
	t.Helper()
	cfg := hw.TestAcceleratorEDRAM()
	var lines []string
	add := func(op, model, spelling, key string) {
		lines = append(lines, fmt.Sprintf("%s %s %s %s", op, model, spelling, key))
	}
	for _, net := range models.Benchmarks() {
		for _, sp := range keySpellings {
			opts, err := resolveOptions(sp.spec, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", net.Name, sp.name, err)
			}
			// The handler keys the degraded rung on the fallback options
			// and the budget rung on the nominal corner; both carry the
			// per-layer budgets whenever the resolved points are faulty.
			for _, v := range []struct {
				op   string
				opts sched.Options
			}{
				{"schedule", opts},
				{"schedule-degraded", opts.Fallback()},
				{"schedule-budget-fallback", withOperatingPoint(opts, mem.Nominal)},
			} {
				o := withLayerBudgets(t, net, cfg, v.opts)
				add(v.op, net.Name, sp.name, scheduleKey(v.op, net, cfg, o))
			}
		}
		for _, s := range search.Strategies() {
			add("compile", net.Name, string(s), compileKey(net, s))
		}
		for _, d := range []string{"RANA*(E-5)", "S+ID"} {
			add("evaluate", net.Name, strings.ReplaceAll(d, " ", "_"), evaluateKey(d, net, "", ""))
		}
	}
	return lines
}

func withOperatingPoint(o sched.Options, point string) sched.Options {
	o.OperatingPoint = point
	return o
}

// withLayerBudgets attaches Stage 1's per-layer budgets the way
// prepareSchedule does: only when a resolved operating point is faulty.
func withLayerBudgets(t *testing.T, net models.Network, cfg hw.Config, o sched.Options) sched.Options {
	t.Helper()
	if _, pts, err := sched.ResolveBackend(cfg, o); err != nil || !anyFaulty(pts) {
		return o
	}
	budgets, err := training.LayerTolerableRates(net.Name, layerNames(net), admissionConstraint, training.PaperRates)
	if err != nil {
		t.Fatal(err)
	}
	o.LayerBudgets = budgets
	return o
}

// TestCanonicalKeysPinned pins the exact cache and plan-store key bytes:
// the persistent store is indexed by these hex digests, so a refactor of
// the canonical form that moves any of them orphans every stored plan.
// Regenerate only for an intended key change, with -update-keys.
func TestCanonicalKeysPinned(t *testing.T) {
	got := keyFixture(t)
	path := filepath.Join("testdata", "keys.txt")
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d keys, fixture has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("key moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
