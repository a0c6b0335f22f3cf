package serve

import (
	"strings"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched"
	"rana/internal/sched/search"
)

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	// Touch "a" so "b" is the eviction victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Add("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Error("c lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestLRURefreshExistingKey(t *testing.T) {
	c := newLRU(2)
	c.Add("a", []byte("A1"))
	c.Add("a", []byte("A2"))
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); string(v) != "A2" {
		t.Errorf("a = %q", v)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(-1)
	c.Add("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
}

// defaultOpts mirrors the service's resolved default options.
func defaultOpts() sched.Options {
	return sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: 734 * time.Microsecond,
		Controller:      memctrl.RefreshOptimized{},
	}
}

func TestCanonicalKeyCollapsesEquivalentRequests(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	// The named benchmark and the same shapes spelled out layer by
	// layer must hash identically.
	named := models.AlexNet()
	spelled := models.Network{Name: "AlexNet"}
	for _, l := range named.Layers {
		l.Stage = "renamed-" + l.Stage // stage labels must not matter
		spelled.Layers = append(spelled.Layers, l)
	}
	k1 := scheduleKey("schedule", named, cfg, defaultOpts())
	k2 := scheduleKey("schedule", spelled, cfg, defaultOpts())
	if k1 != k2 {
		t.Error("equivalent networks hash differently")
	}
}

func TestCanonicalKeySeparatesDistinctRequests(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	base := scheduleKey("schedule", models.AlexNet(), cfg, defaultOpts())
	seen := map[string]string{base: "base"}
	record := func(name, key string) {
		if prev, ok := seen[key]; ok {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[key] = name
	}

	record("different network", scheduleKey("schedule", models.VGG(), cfg, defaultOpts()))

	o := defaultOpts()
	o.RefreshInterval = 45 * time.Microsecond
	record("different interval", scheduleKey("schedule", models.AlexNet(), cfg, o))

	o = defaultOpts()
	o.Controller = memctrl.Conventional{}
	record("different controller", scheduleKey("schedule", models.AlexNet(), cfg, o))

	o = defaultOpts()
	o.Patterns = []pattern.Kind{pattern.OD}
	record("different patterns", scheduleKey("schedule", models.AlexNet(), cfg, o))

	o = defaultOpts()
	o.NaturalTiling = true
	record("natural tiling", scheduleKey("schedule", models.AlexNet(), cfg, o))

	o = defaultOpts()
	o.FixedTiling = &pattern.Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 16}
	record("fixed tiling", scheduleKey("schedule", models.AlexNet(), cfg, o))

	record("different capacity",
		scheduleKey("schedule", models.AlexNet(), cfg.WithBufferWords(cfg.BufferWords*2), defaultOpts()))

	// The three ops namespace their keys.
	record("compile", compileKey(models.AlexNet(), ""))
	record("compile beam", compileKey(models.AlexNet(), search.Beam))
	record("evaluate", evaluateKey("RANA*(E-5)", models.AlexNet(), "", ""))
	record("evaluate other design", evaluateKey("S+ID", models.AlexNet(), "", ""))

	// The backend axis forks keys: a non-default backend, a pinned point
	// and a raised budget are distinct computations.
	o = defaultOpts()
	o.Backend = "approx-dram"
	record("approx backend", scheduleKey("schedule", models.AlexNet(), cfg, o))
	o.OperatingPoint = "v0.8"
	record("pinned point", scheduleKey("schedule", models.AlexNet(), cfg, o))
	o.OperatingPoint = mem.Nominal
	record("pinned nominal", scheduleKey("schedule", models.AlexNet(), cfg, o))
	o = defaultOpts()
	o.Backend = "approx-dram"
	o.ErrorBudget = 1e-3
	record("raised budget", scheduleKey("schedule", models.AlexNet(), cfg, o))
	record("evaluate backend", evaluateKey("RANA*(E-5)", models.AlexNet(), "approx-dram", "v0.8"))
}

func TestBackendKeyNormalization(t *testing.T) {
	// The explicit default backend spelling must collapse onto the legacy
	// empty-spelling key — same computation, byte-identical plans — while
	// pinning the nominal point must NOT collapse onto the unpinned
	// spelling: on multi-point backends an open axis is a different
	// search space.
	cfg := hw.TestAcceleratorEDRAM()
	legacy := scheduleKey("schedule", models.AlexNet(), cfg, defaultOpts())
	o := defaultOpts()
	o.Backend = mem.DefaultName(cfg.BufferTech)
	if got := scheduleKey("schedule", models.AlexNet(), cfg, o); got != legacy {
		t.Error("explicit default backend must share the legacy key")
	}
	o = defaultOpts()
	o.Backend = "approx-dram"
	open := scheduleKey("schedule", models.AlexNet(), cfg, o)
	o.OperatingPoint = mem.Nominal
	if got := scheduleKey("schedule", models.AlexNet(), cfg, o); got == open {
		t.Error("pinned nominal point must not share the open-axis key")
	}
}

func TestCanonicalKeyIsStable(t *testing.T) {
	// The key feeds persistent client-side stores; accidental format
	// drift should be loud. Recompute twice and check shape. The empty
	// strategy resolves to the pruned default before hashing, so the two
	// spellings must collide.
	k1 := compileKey(models.AlexNet(), "")
	k2 := compileKey(models.AlexNet(), search.Pruned)
	if k1 != k2 {
		t.Error("empty strategy must hash like the resolved pruned default")
	}
	if len(k1) != 64 || strings.Trim(k1, "0123456789abcdef") != "" {
		t.Errorf("key %q is not lowercase hex SHA-256", k1)
	}
}

func TestGuardDefaultCanonicalization(t *testing.T) {
	// RetentionGuard 0 means "the default 0.9"; both spellings must
	// hash identically.
	cfg := hw.TestAcceleratorEDRAM()
	implicit := defaultOpts()
	explicit := defaultOpts()
	explicit.RetentionGuard = sched.RetentionGuard
	if scheduleKey("schedule", models.AlexNet(), cfg, implicit) != scheduleKey("schedule", models.AlexNet(), cfg, explicit) {
		t.Error("default guard band hashes differently from explicit 0.9")
	}
}
