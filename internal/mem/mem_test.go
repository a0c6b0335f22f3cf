package mem

import (
	"testing"

	"rana/internal/energy"
	"rana/internal/retention"
)

// TestRegistryInvariants walks every registered backend and asserts the
// contract Register enforces plus the pieces it cannot: nominal first,
// valid names, sane point parameters, buffer backends that actually
// build buffers and expose a retention model consistent with their
// refresh semantics.
func TestRegistryInvariants(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("registry has %d backends, want at least the 5 built-ins", len(names))
	}
	for _, name := range names {
		b, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names listed %q but Lookup misses it", name)
		}
		if b.Name() != name {
			t.Errorf("backend registered as %q names itself %q", name, b.Name())
		}
		if b.Description() == "" {
			t.Errorf("%s: empty description", name)
		}
		pts := b.Points()
		if len(pts) == 0 || pts[0].Name != Nominal {
			t.Fatalf("%s: first point is not nominal", name)
		}
		if pts[0].RetentionScale != 1 && pts[0].RetentionScale != 0 {
			t.Errorf("%s: nominal retention scale %g, want 1 (or 0 for non-refreshing)",
				name, pts[0].RetentionScale)
		}
		for _, p := range pts {
			got, ok := PointByName(b, p.Name)
			if !ok || got != p {
				t.Errorf("%s: PointByName(%q) does not round-trip", name, p.Name)
			}
			if b.Refreshes() {
				d, err := b.Retention(p)
				if err != nil || d == nil {
					t.Errorf("%s@%s: refreshing backend without retention model: %v", name, p.Name, err)
				}
			}
		}
		if _, ok := PointByName(b, "no-such-point"); ok {
			t.Errorf("%s: resolves a point that does not exist", name)
		}
		buf, err := b.NewBuffer(2, 64, 1, pts[0])
		if b.Role() == RoleBuffer {
			if err != nil {
				t.Errorf("%s: buffer backend cannot build a buffer: %v", name, err)
			} else if buf.Words() != 2*64 {
				t.Errorf("%s: buffer words = %d, want 128", name, buf.Words())
			}
		} else if err == nil {
			t.Errorf("%s: off-chip backend built a buffer", name)
		}
	}
	// Buffers() is exactly the buffer-role subset, sorted.
	var bufNames []string
	for _, b := range Buffers() {
		bufNames = append(bufNames, b.Name())
	}
	for i := 1; i < len(bufNames); i++ {
		if bufNames[i-1] >= bufNames[i] {
			t.Errorf("Buffers() not sorted: %v", bufNames)
		}
	}
	for _, n := range bufNames {
		if n == "ddr3" {
			t.Error("Buffers() includes the off-chip backend")
		}
	}
}

// TestNominalPointsMatchLegacyConstants pins the byte-identity anchor:
// the default backends' nominal points project onto exactly the Table
// II/III constants the historical hard-wired path priced with.
func TestNominalPointsMatchLegacyConstants(t *testing.T) {
	ed, _ := Lookup("edram")
	p := ed.Points()[0]
	if p.AccessPJ != energy.EDRAMAccessPJ || p.RefreshPJ != energy.EDRAMRefreshPJ ||
		p.WearPJ != 0 || p.LatencyNS != energy.EDRAMLatencyNS {
		t.Errorf("edram nominal %+v diverges from Table II/III constants", p)
	}
	if ed.BankAreaMM2() != energy.EDRAMBankAreaMM2 {
		t.Errorf("edram bank area %g != %g", ed.BankAreaMM2(), energy.EDRAMBankAreaMM2)
	}
	if tab := p.Table(); tab != energy.EDRAM.Table() {
		t.Errorf("edram nominal table %+v != legacy %+v", tab, energy.EDRAM.Table())
	}
	d, err := ed.Retention(p)
	if err != nil {
		t.Fatal(err)
	}
	if rt := d.RetentionTime(retention.TolerableFailureRate); rt != retention.TolerableRetentionTime {
		t.Errorf("edram nominal retention curve shifted: tolerable time %v", rt)
	}

	sr, _ := Lookup("sram")
	p = sr.Points()[0]
	if p.AccessPJ != energy.SRAMAccessPJ || p.RefreshPJ != 0 || p.WearPJ != 0 ||
		p.LatencyNS != energy.SRAMLatencyNS {
		t.Errorf("sram nominal %+v diverges from Table II/III constants", p)
	}
	if sr.Refreshes() {
		t.Error("sram claims to refresh")
	}
	if tab := p.Table(); tab != energy.SRAM.Table() {
		t.Errorf("sram nominal table %+v != legacy %+v", tab, energy.SRAM.Table())
	}
}

// TestDefaults: the technology → default-backend mapping and the
// normalization rules the cache keys and memo keys rely on.
func TestDefaults(t *testing.T) {
	if DefaultName(energy.EDRAM) != "edram" || DefaultName(energy.SRAM) != "sram" {
		t.Fatal("default-name mapping broken")
	}
	for _, tech := range []energy.BufferTech{energy.EDRAM, energy.SRAM} {
		b := Default(tech)
		if b == nil || b.Name() != DefaultName(tech) {
			t.Fatalf("Default(%v) = %v", tech, b)
		}
		if got := NormalizeName(DefaultName(tech), tech); got != "" {
			t.Errorf("NormalizeName(default, %v) = %q, want \"\"", tech, got)
		}
		if got := NormalizeName("approx-dram", tech); got != "approx-dram" {
			t.Errorf("NormalizeName(approx-dram, %v) = %q", tech, got)
		}
		if got := NormalizeName("", tech); got != "" {
			t.Errorf("NormalizeName(\"\", %v) = %q", tech, got)
		}
	}
	// The cross mapping must NOT normalize: "sram" on an eDRAM config is
	// a real backend change.
	if got := NormalizeName("sram", energy.EDRAM); got != "sram" {
		t.Errorf(`NormalizeName("sram", EDRAM) = %q, want "sram"`, got)
	}
	if NormalizePoint(Nominal) != "" || NormalizePoint("v0.8") != "v0.8" || NormalizePoint("") != "" {
		t.Error("NormalizePoint rules broken")
	}
}

// TestApproxDRAMPointCurve: the EDEN-style ladder is ordered — each
// reduced-voltage step buys access energy with retention and raw bit
// errors — and the V² access-energy scaling holds.
func TestApproxDRAMPointCurve(t *testing.T) {
	b, ok := Lookup("approx-dram")
	if !ok {
		t.Fatal("approx-dram not registered")
	}
	pts := b.Points()
	if len(pts) != 4 {
		t.Fatalf("approx-dram has %d points, want 4", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		prev, p := pts[i-1], pts[i]
		if p.AccessPJ >= prev.AccessPJ {
			t.Errorf("point %s access %g not cheaper than %s's %g", p.Name, p.AccessPJ, prev.Name, prev.AccessPJ)
		}
		if p.RetentionScale >= prev.RetentionScale {
			t.Errorf("point %s retention scale %g not shorter than %s's %g", p.Name, p.RetentionScale, prev.Name, prev.RetentionScale)
		}
		if p.BitErrorRate <= prev.BitErrorRate {
			t.Errorf("point %s BER %g not above %s's %g", p.Name, p.BitErrorRate, prev.Name, prev.BitErrorRate)
		}
		// Scaled retention curves must actually materialize.
		d, err := b.Retention(p)
		if err != nil || d == nil {
			t.Errorf("point %s: no retention curve: %v", p.Name, err)
		}
	}
	// V² scaling off the nominal corner: v0.8 → 0.64×.
	v08, _ := PointByName(b, "v0.8")
	want := pts[0].AccessPJ * 0.64
	if diff := v08.AccessPJ - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("v0.8 access %g, want %g (V² scaling)", v08.AccessPJ, want)
	}
}

// TestReRAMWear: the Hamun-style backend is non-volatile (no refresh)
// but charges ageing per write, and its fast-write point trades wear
// for error rate.
func TestReRAMWear(t *testing.T) {
	b, ok := Lookup("reram")
	if !ok {
		t.Fatal("reram not registered")
	}
	if b.Refreshes() {
		t.Error("reram claims to refresh")
	}
	nom := b.Points()[0]
	if nom.WearPJ <= 0 {
		t.Errorf("reram nominal wear %g, want > 0", nom.WearPJ)
	}
	fw, ok := PointByName(b, "fast-write")
	if !ok {
		t.Fatal("reram has no fast-write point")
	}
	if fw.WearPJ >= nom.WearPJ || fw.BitErrorRate <= nom.BitErrorRate {
		t.Errorf("fast-write %+v does not trade wear for errors vs nominal %+v", fw, nom)
	}
}

// TestParseSpecTable: the deterministic counterpart of FuzzParseSpec.
func TestParseSpecTable(t *testing.T) {
	good := map[string]struct{ backend, point string }{
		"edram":            {"edram", Nominal},
		"edram@nominal":    {"edram", Nominal},
		"approx-dram@v0.8": {"approx-dram", "v0.8"},
		"reram@fast-write": {"reram", "fast-write"},
		"ddr3":             {"ddr3", Nominal},
	}
	for spec, want := range good {
		b, p, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		if b.Name() != want.backend || p.Name != want.point {
			t.Errorf("ParseSpec(%q) = %s@%s, want %s@%s", spec, b.Name(), p.Name, want.backend, want.point)
		}
	}
	for _, spec := range []string{
		"", "@", "edram@", "@nominal", "edram@@nominal", "EDRAM", "edram ",
		"nvram", "edram@v0.5", "approx-dram@V0.8", "-edram",
	} {
		if _, _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

// TestRegisterPanics: registration errors are programmer errors and
// panic loudly at init time.
func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("nil backend", func() { Register(nil) })
	mustPanic("duplicate", func() {
		b, _ := Lookup("edram")
		Register(b)
	})
	mustPanic("bad name", func() { Register(testBackend{name: "Bad Name"}) })
	mustPanic("no points", func() { Register(testBackend{name: "t-nopoints"}) })
	mustPanic("nominal not first", func() {
		Register(testBackend{name: "t-order", points: []OperatingPoint{{Name: "v0.9"}}})
	})
	mustPanic("duplicate point", func() {
		Register(testBackend{name: "t-dup", points: []OperatingPoint{{Name: Nominal}, {Name: Nominal}}})
	})
	mustPanic("negative energy", func() {
		Register(testBackend{name: "t-neg", points: []OperatingPoint{{Name: Nominal, AccessPJ: -1}}})
	})
	mustPanic("ber above 1", func() {
		Register(testBackend{name: "t-ber", points: []OperatingPoint{{Name: Nominal, BitErrorRate: 2}}})
	})
}

// testBackend is a minimal Backend for registration-failure tests.
type testBackend struct {
	name   string
	points []OperatingPoint
}

func (t testBackend) Name() string             { return t.name }
func (t testBackend) Description() string      { return "test backend" }
func (t testBackend) Role() Role               { return RoleBuffer }
func (t testBackend) Refreshes() bool          { return false }
func (t testBackend) Points() []OperatingPoint { return t.points }
func (t testBackend) BankAreaMM2() float64     { return 0.1 }
func (t testBackend) Retention(OperatingPoint) (*retention.Distribution, error) {
	return nil, nil
}
func (t testBackend) NewBuffer(banks, wordsPerBank int, seed uint64, p OperatingPoint) (Buffer, error) {
	return nil, nil
}
