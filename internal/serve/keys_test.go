package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
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

// keyCase is one pinned key: its fixture labels and the resolved inputs
// its key function hashes.
type keyCase struct {
	op, model, spelling string
	net                 models.Network
	cfg                 hw.Config       // schedule ops
	opts                sched.Options   // schedule ops
	strategy            search.Strategy // compile
	design              string          // evaluate
	backend, point      string          // evaluate
}

// appendDoc appends the case's whole canonical form with the hand
// encoder: the formatted head, then the op's tail.
func (c *keyCase) appendDoc(b []byte) []byte {
	switch c.op {
	case "compile":
		return appendCompileTail(appendKeyHead(b, c.op, c.net), c.strategy)
	case "evaluate":
		return appendEvaluateTail(appendKeyHead(b, c.op, c.net), c.design, c.backend, c.point)
	default:
		return appendScheduleTail(appendKeyHead(b, c.op, c.net), c.cfg, c.opts)
	}
}

// refDoc is the case's canonical form as json.Marshal spells the
// reference struct.
func (c *keyCase) refDoc() ([]byte, error) {
	switch c.op {
	case "compile":
		return refCompileKey(c.net, c.strategy)
	case "evaluate":
		return refEvaluateKey(c.design, c.net, c.backend, c.point)
	default:
		return refScheduleKey(c.op, c.net, c.cfg, c.opts)
	}
}

// key is the case's cache key.
func (c *keyCase) key() string {
	switch c.op {
	case "compile":
		return compileKey(c.net, c.strategy)
	case "evaluate":
		return evaluateKey(c.design, c.net, c.backend, c.point)
	default:
		return scheduleKey(c.op, c.net, c.cfg, c.opts)
	}
}

// keyCases lists every pinned key's inputs, in fixture order.
func keyCases(t testing.TB) []keyCase {
	t.Helper()
	cfg := hw.TestAcceleratorEDRAM()
	var cases []keyCase
	for _, b := range models.Benchmarks() {
		// The zoo's own entry, as a named request resolves it, so the
		// keys resume from the zoo heads' hashed states (zooHead).
		net, _ := models.ByName(b.Name)
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
				cases = append(cases, keyCase{op: v.op, model: net.Name, spelling: sp.name,
					net: net, cfg: cfg, opts: withLayerBudgets(t, net, cfg, v.opts)})
			}
		}
		for _, s := range search.Strategies() {
			cases = append(cases, keyCase{op: "compile", model: net.Name, spelling: string(s), net: net, strategy: s})
		}
		for _, d := range []string{"RANA*(E-5)", "S+ID"} {
			cases = append(cases, keyCase{op: "evaluate", model: net.Name,
				spelling: strings.ReplaceAll(d, " ", "_"), net: net, design: d})
		}
	}
	return cases
}

// keyFixture renders every pinned key, one "op model spelling key" line
// each, in a fixed order.
func keyFixture(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, c := range keyCases(t) {
		lines = append(lines, fmt.Sprintf("%s %s %s %s", c.op, c.model, c.spelling, c.key()))
	}
	return lines
}

func withOperatingPoint(o sched.Options, point string) sched.Options {
	o.OperatingPoint = point
	return o
}

// withLayerBudgets attaches Stage 1's per-layer budgets the way
// prepareSchedule does: only when a resolved operating point is faulty.
func withLayerBudgets(t testing.TB, net models.Network, cfg hw.Config, o sched.Options) sched.Options {
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

// TestZooKeyHeadsMatchFormatted: a zoo network's keys, which resume
// from its head's hashed state, equal the keys of a copy of it, whose
// head is formatted and hashed per request, for every op that has a zoo
// head.
func TestZooKeyHeadsMatchFormatted(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	opts := defaultOpts()
	for _, b := range models.Benchmarks() {
		zoo, _ := models.ByName(b.Name)
		copied := zoo
		copied.Layers = slices.Clone(zoo.Layers)
		for _, op := range zooKeyOps {
			if zooHead(op, &zoo) == nil || zooHead(op, &copied) != nil {
				t.Fatalf("%s/%s: the zoo entry must resume from a hashed head and its copy must not", zoo.Name, op)
			}
		}
		for _, op := range zooKeyOps[:3] {
			if got, want := scheduleKey(op, zoo, cfg, opts), scheduleKey(op, copied, cfg, opts); got != want {
				t.Errorf("%s/%s: zoo key %s, formatted %s", zoo.Name, op, got, want)
			}
		}
		if got, want := compileKey(zoo, search.Beam), compileKey(copied, search.Beam); got != want {
			t.Errorf("%s/compile: zoo key %s, formatted %s", zoo.Name, got, want)
		}
		if got, want := evaluateKey("S+ID", zoo, "approx-dram", "v0.8"), evaluateKey("S+ID", copied, "approx-dram", "v0.8"); got != want {
			t.Errorf("%s/evaluate: zoo key %s, formatted %s", zoo.Name, got, want)
		}
	}
}

// FuzzCanonicalKey holds the hand-written canonical encoder to
// json.Marshal of the reference struct (hash_ref_test.go), byte for
// byte. pick chooses one of the pinned key cases as the base (the seeds
// are all of them, unmodified); each bit of mask overrides one part of
// it with fuzzed values: names with HTML characters, control bytes,
// non-ASCII and invalid UTF-8, layer shapes, configuration fields,
// guard and budget floats, and the pattern, strategy, traversal,
// mapping and backend specs. A non-finite float the reference refuses
// to marshal must make the encoder panic, its invariant check.
func FuzzCanonicalKey(f *testing.F) {
	cases := keyCases(f)
	for i := range cases {
		f.Add(uint8(i), uint16(0), "", "", "", int64(0), 0.0, 0.0, 0.0, "", "", "", "")
	}
	f.Add(uint8(0), uint16(0x7fff), `<net>&"x"`, "l\x00\u2028\t", "cfg\xff\xfe", int64(-7), 1e-7, 5e-324, 1e21,
		"approx-dram", "v0.7", "rtc,blocked4", "all")
	f.Add(uint8(3), uint16(0x0fff), "日本", "\\back\\", "\x7f\u2029", int64(1<<40), 0.995, 1e-5, 1e20,
		"edram", "nominal", "linear,linear", "row-major,interleave")
	f.Add(uint8(78), uint16(0x2108), "evaluate<>", "x", "S+ID&", int64(3), 1e-6, 9.999999e-7, 1.5e300,
		"approx-dram", "v0.8", "bogus", "nope")
	f.Add(uint8(75), uint16(0x2009), "", "", "beam\xc3", int64(0), 0.0, 0.0, 0.0, "", "", "", "")
	f.Fuzz(func(t *testing.T, pick uint8, mask uint16, netName, layerName, text string, n int64,
		f1, f2, f3 float64, backend, point, traversal, mapping string) {
		c := cases[int(pick)%len(cases)]
		c.net.Layers = slices.Clone(c.net.Layers) // the base cases are shared
		on := func(bit uint) bool { return mask&(1<<bit) != 0 }
		if on(0) {
			c.net.Name = netName
		}
		if l := len(c.net.Layers); l > 0 && (on(1) || on(2)) {
			layer := &c.net.Layers[int(uint64(n)%uint64(l))]
			if on(1) {
				layer.Name = layerName
			}
			if on(2) {
				v := int(n)
				layer.N, layer.H, layer.L, layer.M = v, -v, v>>3, v<<2
				layer.K, layer.S, layer.P, layer.Groups = v&7, v%5, -(v & 3), v>>9
			}
		}
		if on(3) {
			c.net.Layers = nil
		}
		if on(4) {
			c.cfg.Name, c.cfg.FrequencyHz = text, f1
			c.cfg.ArrayM, c.cfg.BufferWords, c.cfg.BankWords = int(n), uint64(n), -int(n)
		}
		if on(5) {
			c.opts.RetentionGuard = f1
		}
		if on(6) {
			c.opts.ErrorBudget = f2
		}
		if on(7) {
			c.opts.LayerBudgets = map[string]float64{layerName: f3, text: f1, netName: f2}
		}
		if on(8) {
			c.opts.Backend, c.opts.OperatingPoint = backend, point
			c.backend, c.point = backend, point
		}
		if on(9) {
			c.opts.Traversal, c.opts.Mapping = traversal, mapping
		}
		if on(10) {
			c.opts.Patterns = nil
			for _, ch := range []byte(text) {
				c.opts.Patterns = append(c.opts.Patterns, pattern.Kind(ch%4))
			}
		}
		if on(11) {
			c.opts.Controller, c.opts.NaturalTiling = memctrl.Conventional{}, !c.opts.NaturalTiling
		}
		if on(12) {
			v := int(n)
			c.opts.FixedTiling = &pattern.Tiling{Tm: v, Tn: -v, Tr: v >> 4, Tc: v & 15}
		}
		if on(13) {
			c.opts.Search, c.opts.BeamWidth = search.Strategy(text), int(n)
			c.strategy, c.design = search.Strategy(text), text
		}
		if on(14) {
			c.opts.RefreshInterval = time.Duration(n)
		}
		if on(15) {
			c.opts.Controller = nil
		}

		want, refErr := c.refDoc()
		got, panicked := func() (b []byte, panicked bool) {
			defer func() { panicked = recover() != nil }()
			return c.appendDoc(nil), false
		}()
		if refErr != nil {
			if !panicked {
				t.Fatalf("reference refused the form (%v) but the encoder wrote %s", refErr, got)
			}
			return
		}
		if panicked {
			t.Fatalf("encoder panicked on a form the reference marshals: %s", want)
		}
		if string(got) != string(want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("encoder differs from json.Marshal at byte %d:\n got %s\nwant %s", i, got, want)
		}
		sum := sha256.Sum256(want)
		if key := c.key(); key != hex.EncodeToString(sum[:]) {
			t.Fatalf("key %s is not the SHA-256 of the canonical form", key)
		}
	})
}
