package sched

// Tests of the one encoder of a Stage-2 frame (canonical.go): every
// field of hw.Config and Options is either in its bytes or on the
// runtime list, a shared memo keeps every plan-determining field apart,
// and the memo's frame digest drops exactly Config.Name,
// RefreshInterval and LayerBudgets.

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/sched/search"
)

// frameField sets one field of the frame fixture (TestAcceleratorEDRAM,
// ranaOpts) to a valid value off its own. base, when set, first moves
// the fixture to where the field changes AlexNet's plan: the
// approximate-DRAM ladder for the point and the budgets, the beam for
// its width, a width for the beam, and the conventional 45 µs interval
// for the traversal. runtime marks the fields no plan byte depends on,
// which the canonical form leaves out.
type frameField struct {
	name    string // "Config.<field>" or "Options.<field>"
	base    func(*hw.Config, *Options)
	set     func(*hw.Config, *Options)
	runtime bool
}

func approxDRAM(_ *hw.Config, o *Options) { o.Backend = "approx-dram" }

func beam(_ *hw.Config, o *Options) { o.Search = search.Beam }

func narrowBeam(_ *hw.Config, o *Options) { o.BeamWidth = 2 }

func conventionalInterval(_ *hw.Config, o *Options) { o.RefreshInterval = 45 * time.Microsecond }

// frameFields lists every field of hw.Config and Options exactly once;
// TestCanonicalCoversFields fails until a new field is added here.
var frameFields = []frameField{
	{name: "Config.Name", set: func(c *hw.Config, _ *Options) { c.Name = "renamed" }},
	{name: "Config.ArrayM", set: func(c *hw.Config, _ *Options) { c.ArrayM = 8 }},
	{name: "Config.ArrayN", set: func(c *hw.Config, _ *Options) { c.ArrayN = 8 }},
	{name: "Config.Mapping", set: func(c *hw.Config, _ *Options) { c.Mapping = hw.MapOutputInput }},
	{name: "Config.FrequencyHz", set: func(c *hw.Config, _ *Options) { c.FrequencyHz = 400e6 }},
	{name: "Config.LocalInput", set: func(c *hw.Config, _ *Options) { c.LocalInput = 4096 }},
	{name: "Config.LocalOutput", set: func(c *hw.Config, _ *Options) { c.LocalOutput = 1024 }},
	{name: "Config.LocalWeight", set: func(c *hw.Config, _ *Options) { c.LocalWeight = 4096 }},
	{name: "Config.BufferWords", set: func(c *hw.Config, _ *Options) { c.BufferWords = hw.TestSRAMWords }},
	{name: "Config.BufferTech", set: func(c *hw.Config, _ *Options) { c.BufferTech = energy.SRAM }},
	{name: "Config.BankWords", set: func(c *hw.Config, _ *Options) { c.BankWords = energy.BankWords / 4 }},
	{name: "Options.Patterns", set: func(_ *hw.Config, o *Options) { o.Patterns = []pattern.Kind{pattern.ID} }},
	{name: "Options.RefreshInterval", set: func(_ *hw.Config, o *Options) { o.RefreshInterval = 45 * time.Microsecond }},
	{name: "Options.Controller", set: func(_ *hw.Config, o *Options) { o.Controller = memctrl.RefreshOptimized{} }},
	{name: "Options.FixedTiling", set: func(_ *hw.Config, o *Options) { o.FixedTiling = &pattern.Tiling{Tm: 16, Tn: 1, Tr: 1, Tc: 16} }},
	{name: "Options.NaturalTiling", set: func(_ *hw.Config, o *Options) { o.NaturalTiling = true }},
	{name: "Options.RetentionGuard", set: func(_ *hw.Config, o *Options) { o.RetentionGuard = 0.5 }},
	{name: "Options.Search", base: narrowBeam, set: func(_ *hw.Config, o *Options) { o.Search = search.Beam }},
	{name: "Options.BeamWidth", base: beam, set: func(_ *hw.Config, o *Options) { o.BeamWidth = 2 }},
	{name: "Options.Backend", set: func(_ *hw.Config, o *Options) { o.Backend = "approx-dram" }},
	{name: "Options.OperatingPoint", base: approxDRAM, set: func(_ *hw.Config, o *Options) { o.OperatingPoint = "v0.9" }},
	{name: "Options.ErrorBudget", base: approxDRAM, set: func(_ *hw.Config, o *Options) { o.ErrorBudget = 1e-6 }},
	{name: "Options.Traversal", base: conventionalInterval, set: func(_ *hw.Config, o *Options) { o.Traversal = "rtc" }},
	{name: "Options.Mapping", set: func(_ *hw.Config, o *Options) { o.Mapping = "interleave" }},
	{name: "Options.LayerBudgets", base: approxDRAM, set: func(_ *hw.Config, o *Options) {
		o.LayerBudgets = map[string]float64{"conv1": 1e-9, "conv2": 1e-9, "conv3": 1e-9, "conv4": 1e-9, "conv5": 1e-9}
	}},
	{name: "Options.Parallelism", runtime: true, set: func(_ *hw.Config, o *Options) { o.Parallelism = 3 }},
	{name: "Options.Memo", runtime: true, set: func(_ *hw.Config, o *Options) { o.Memo = NewMemo(1) }},
	{name: "Options.DisableMemo", runtime: true, set: func(_ *hw.Config, o *Options) { o.DisableMemo = true }},
	{name: "Options.Prefix", runtime: true, set: func(_ *hw.Config, o *Options) { o.Prefix = NewPrefixMemo(1) }},
}

// fieldFrame returns the fixture under f.base, and the same with f.set
// applied on top.
func fieldFrame(f frameField) (cfg0 hw.Config, opts0 Options, cfg hw.Config, opts Options) {
	cfg0, opts0 = hw.TestAcceleratorEDRAM(), ranaOpts()
	if f.base != nil {
		f.base(&cfg0, &opts0)
	}
	cfg, opts = cfg0, opts0
	f.set(&cfg, &opts)
	return cfg0, opts0, cfg, opts
}

// changedFields names the fields of the two structs whose values differ.
func changedFields(prefix string, a, b any) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var names []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			names = append(names, prefix+va.Type().Field(i).Name)
		}
	}
	return names
}

// TestCanonicalCoversFields is AppendCanonical's tripwire. Every field
// of hw.Config and Options is in frameFields: a runtime field leaves the
// canonical bytes unchanged, and any other field set to a valid value
// off the fixture's changes them. A field added to either struct fails
// here until frameFields says how it is treated.
func TestCanonicalCoversFields(t *testing.T) {
	listed := map[string]bool{}
	for _, f := range frameFields {
		if listed[f.name] {
			t.Errorf("%s listed twice", f.name)
		}
		listed[f.name] = true
	}
	for _, s := range []struct {
		prefix string
		typ    reflect.Type
	}{{"Config.", reflect.TypeOf(hw.Config{})}, {"Options.", reflect.TypeOf(Options{})}} {
		for i := 0; i < s.typ.NumField(); i++ {
			if name := s.prefix + s.typ.Field(i).Name; !listed[name] {
				t.Errorf("%s is neither in the canonical form's checks nor on the runtime list: add it to frameFields", name)
			}
		}
	}
	for _, f := range frameFields {
		cfg0, opts0, cfg, opts := fieldFrame(f)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if err := opts.Validate(); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		changed := append(changedFields("Config.", cfg0, cfg), changedFields("Options.", opts0, opts)...)
		if len(changed) != 1 || changed[0] != f.name {
			t.Fatalf("%s: the setter changed %v", f.name, changed)
		}
		before, after := AppendCanonical(nil, &cfg0, &opts0), AppendCanonical(nil, &cfg, &opts)
		if moved := string(before) != string(after); moved == f.runtime {
			t.Errorf("%s (runtime %v): canonical bytes moved=%v\n%s\n%s", f.name, f.runtime, moved, before, after)
		}
	}
}

// TestSharedMemoSeparatesFields: a shared memo never answers one frame
// with another's frontier. For each plan-determining field, one memo
// compiles the fixture and then the fixture with that field set; the
// second plan must equal its own memo-free plan, and must differ from
// the fixture's, or aliasing the two frames would go unnoticed.
func TestSharedMemoSeparatesFields(t *testing.T) {
	net := models.AlexNet()
	ctx := context.Background()
	for _, f := range frameFields {
		if f.runtime || f.name == "Config.Name" {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			cfg0, opts0, cfg, opts := fieldFrame(f)
			base, want := coldBytes(t, net, cfg0, opts0), coldBytes(t, net, cfg, opts)
			if base == want {
				t.Fatalf("setting %s leaves AlexNet's plan unchanged; the check has no teeth", f.name)
			}
			memo := NewMemo(0)
			opts0.Memo, opts.Memo = memo, memo
			if _, _, err := ExploreNetworkContext(ctx, net, cfg0, opts0); err != nil {
				t.Fatal(err)
			}
			p, _, err := ExploreNetworkContext(ctx, net, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if wireBytes(t, p) != want {
				t.Fatalf("shared memo answered the %s change with the fixture's frontier", f.name)
			}
		})
	}
}

// FuzzCanonicalFrame holds the shared encoder to two properties on
// fuzzed frames, each bit of mask overriding one part of the fixture.
// A configuration and options both Validate calls accept encode
// without a panic. And the memo's frame digest ignores Config.Name,
// RefreshInterval and LayerBudgets and nothing else: a fuzzed frame has
// the fixture's digest exactly when its canonical form equals the
// fixture's once those three fields are copied over from the fixture.
func FuzzCanonicalFrame(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint32(0), "", int64(0), 0.0, 0.0, "", "", "", "")
	// Validate rejects these: a NaN or +Inf clock, a guard above 1, +Inf
	// or NaN, a NaN budget. Each once reached the encoder, which panics.
	f.Add(uint32(1<<3), "", int64(0), nan, 0.0, "", "", "", "")
	f.Add(uint32(1<<3), "", int64(0), inf, 0.0, "", "", "", "")
	f.Add(uint32(1<<12), "", int64(0), 2.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<12), "", int64(0), inf, 0.0, "", "", "", "")
	f.Add(uint32(1<<12), "", int64(0), nan, 0.0, "", "", "", "")
	f.Add(uint32(1<<15|1<<14), "", int64(0), 0.0, nan, "approx-dram", "", "", "")
	// The three fields the frame drops, alone and together, and the
	// runtime fields.
	f.Add(uint32(1<<0), "other", int64(0), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<0|1<<8|1<<17), "conv1", int64(45000), 1e-9, 1e-7, "", "", "", "")
	f.Add(uint32(1<<18), "", int64(3), 0.0, 0.0, "", "", "", "")
	// One kept field off the fixture at a time: each moves the digest.
	f.Add(uint32(1<<1), "", int64(8|8<<6), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<2), "", int64(1), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<3), "", int64(0), 400e6, 0.0, "", "", "", "")
	f.Add(uint32(1<<4), "", int64(4096), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<5), "", int64(1<<20), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<6), "", int64(0), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<7), "ID", int64(0), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<9), "", int64(2), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<10), "", int64(1|1<<5|1<<10|1<<13), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<11), "", int64(0), 0.0, 0.0, "", "", "", "")
	f.Add(uint32(1<<12), "", int64(0), 0.5, 0.0, "", "", "", "")
	f.Add(uint32(1<<13), "", int64(2), 0.0, 0.0, "", "beam", "", "")
	f.Add(uint32(1<<14), "", int64(0), 0.0, 0.0, "approx-dram", "v0.8", "", "")
	f.Add(uint32(1<<15), "", int64(0), 0.0, 1e-3, "", "", "", "")
	f.Add(uint32(1<<16), "", int64(0), 0.0, 0.0, "", "", "rtc", "")
	f.Add(uint32(1<<16), "", int64(0), 0.0, 0.0, "", "", "", "all")
	// Respellings that share a frame, and a bit of everything.
	f.Add(uint32(1<<14|1<<16), "", int64(0), 0.0, 0.0, "edram", "", "linear", "row-major,row-major")
	f.Add(uint32(1<<13), "", int64(0), 0.0, 0.0, "", "pruned", "", "")
	f.Add(uint32(0x7ffff), "WD<&>\xff", int64(0x7f3d5), 0.8, 1e-3, "approx-dram", "beam", "rtc,blocked4", "all")
	f.Fuzz(func(t *testing.T, mask uint32, text string, n int64, f1, f2 float64, backend, point, traversal, mapping string) {
		cfg0, opts0 := hw.TestAcceleratorEDRAM(), ranaOpts()
		cfg, opts := cfg0, opts0
		on := func(bit uint) bool { return mask&(1<<bit) != 0 }
		v := int(n)
		if on(0) {
			cfg.Name = text
		}
		if on(1) {
			cfg.ArrayM, cfg.ArrayN = v&63, (v>>6)&63
		}
		if on(2) {
			cfg.Mapping = hw.Mapping(v & 3)
		}
		if on(3) {
			cfg.FrequencyHz = f1
		}
		if on(4) {
			cfg.LocalInput, cfg.LocalOutput, cfg.LocalWeight = v, v>>4, v>>8
		}
		if on(5) {
			cfg.BufferWords, cfg.BankWords = uint64(n), v>>10
		}
		if on(6) {
			cfg.BufferTech = energy.BufferTech(v & 1)
		}
		if on(7) {
			opts.Patterns = nil
			for _, ch := range []byte(text) {
				opts.Patterns = append(opts.Patterns, pattern.Kind(ch%4))
			}
		}
		if on(8) {
			opts.RefreshInterval = time.Duration(n)
		}
		if on(9) {
			opts.Controller = [...]memctrl.Controller{nil, memctrl.Conventional{}, memctrl.RefreshOptimized{}}[uint64(n)%3]
		}
		if on(10) {
			opts.FixedTiling = &pattern.Tiling{Tm: v & 31, Tn: (v >> 5) & 31, Tr: (v >> 10) & 7, Tc: (v >> 13) & 31}
		}
		if on(11) {
			opts.NaturalTiling = true
		}
		if on(12) {
			opts.RetentionGuard = f1
		}
		if on(13) {
			opts.Search, opts.BeamWidth = search.Strategy(point), v&255
		}
		if on(14) {
			opts.Backend, opts.OperatingPoint = backend, point
		}
		if on(15) {
			opts.ErrorBudget = f2
		}
		if on(16) {
			opts.Traversal, opts.Mapping = traversal, mapping
		}
		if on(17) {
			opts.LayerBudgets = map[string]float64{text: f2, "conv1": f1}
		}
		if on(18) {
			opts.Parallelism, opts.DisableMemo = v&7, true
		}
		if cfg.Validate() != nil || opts.Validate() != nil {
			return
		}
		full := AppendCanonical(nil, &cfg, &opts)
		frame := frameDigest(cfg, opts)
		cfg.Name = cfg0.Name
		opts.RefreshInterval, opts.LayerBudgets = opts0.RefreshInterval, opts0.LayerBudgets
		got, want := AppendCanonical(nil, &cfg, &opts), AppendCanonical(nil, &cfg0, &opts0)
		if eq, same := frame == frameDigest(cfg0, opts0), string(got) == string(want); eq != same {
			t.Fatalf("frame digests equal %v, canonical forms without the dropped fields equal %v:\n%s\n%s\n(full form %s)",
				eq, same, got, want, full)
		}
	})
}
