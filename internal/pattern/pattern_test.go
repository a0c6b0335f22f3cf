package pattern

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"rana/internal/hw"
	"rana/internal/models"
)

// layerA returns the paper's running case Layer-A: ResNet res4a_branch1.
func layerA(t *testing.T) models.ConvLayer {
	t.Helper()
	l, ok := models.ResNet().Layer("res4a_branch1")
	if !ok {
		t.Fatal("res4a_branch1 missing")
	}
	return l
}

// layerB returns the paper's running case Layer-B: VGG conv4_2.
func layerB(t *testing.T) models.ConvLayer {
	t.Helper()
	l, ok := models.VGG().Layer("conv4_2")
	if !ok {
		t.Fatal("conv4_2 missing")
	}
	return l
}

// paperTiling is the running-case tiling Tm=Tn=Tc=16, Tr=1 (§IV-C1).
var paperTiling = Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 16}

func usWithin(t *testing.T, got time.Duration, wantUS, tolUS float64) {
	t.Helper()
	g := float64(got) / float64(time.Microsecond)
	if math.Abs(g-wantUS) > tolUS {
		t.Errorf("duration = %.1fµs, want %.1fµs ± %.1f", g, wantUS, tolUS)
	}
}

// TestLayerAIDLifetime checks §III-B2: running Layer-A under ID on the
// test accelerator gives LTo < LTw < LTi = 2294 µs.
func TestLayerAIDLifetime(t *testing.T) {
	a := MustAnalyze(layerA(t), ID, paperTiling, hw.TestAccelerator())
	usWithin(t, a.Lifetimes.Input, 2294, 2)
	if !(a.Lifetimes.Output < a.Lifetimes.Weight && a.Lifetimes.Weight < a.Lifetimes.Input) {
		t.Errorf("want LTo < LTw < LTi, got %+v", a.Lifetimes)
	}
	if a.Lifetimes.Input != a.ExecTime {
		t.Errorf("ID input lifetime %v != exec time %v", a.Lifetimes.Input, a.ExecTime)
	}
	if math.Abs(a.Utilization-0.875) > 1e-9 {
		t.Errorf("utilization = %v, want 0.875 (14/16 edge tiles)", a.Utilization)
	}
}

// TestLayerAIDBufferStorage checks §III-B1: Layer-A's minimum ID buffer
// storage is 785 KB in 16-bit precision (Tm=Tn=Tr=Tc=1), exceeding the
// 384 KB SRAM but fitting the 1.454 MB eDRAM.
func TestLayerAIDBufferStorage(t *testing.T) {
	one := Tiling{Tm: 1, Tn: 1, Tr: 1, Tc: 1}
	sram := MustAnalyze(layerA(t), ID, one, hw.TestAccelerator())
	kb := float64(sram.BufferStorage.Total()) * 2 / 1024
	if math.Abs(kb-785) > 1.0 {
		t.Errorf("Layer-A ID min buffer storage = %.1f KB, want 785", kb)
	}
	if sram.FitsBuffer {
		t.Error("785 KB should not fit the 384 KB SRAM buffer")
	}
	edram := MustAnalyze(layerA(t), ID, one, hw.TestAcceleratorEDRAM())
	if !edram.FitsBuffer {
		t.Error("785 KB should fit the 1.454 MB eDRAM buffer")
	}
}

// TestLayerAODLifetime checks §IV-C1: Layer-A under OD with
// Tm,Tn,Tc=16, Tr=1 has data lifetime LTo = 72 µs — below the 734 µs
// tolerable retention time, so no refresh is needed.
func TestLayerAODLifetime(t *testing.T) {
	a := MustAnalyze(layerA(t), OD, paperTiling, hw.TestAccelerator())
	usWithin(t, a.Lifetimes.Output, 72, 1)
	if a.Lifetimes.Input != a.Lifetimes.Output {
		t.Errorf("OD should give LTi = LTo, got %v vs %v", a.Lifetimes.Input, a.Lifetimes.Output)
	}
	if a.Lifetimes.Output >= 734*time.Microsecond {
		t.Error("Layer-A OD lifetime should beat the 734 µs tolerable retention time")
	}
}

// TestLayerBODTnSweep checks §IV-C1 and §IV-D2: Layer-B under OD has
// LTi = LTo = 1290 µs and LTw = 40 µs at Tn=16; reducing Tn to 8 halves
// the lifetime to 645 µs.
func TestLayerBODTnSweep(t *testing.T) {
	cfg := hw.TestAccelerator()
	a16 := MustAnalyze(layerB(t), OD, paperTiling, cfg)
	usWithin(t, a16.Lifetimes.Output, 1290, 2)
	usWithin(t, a16.Lifetimes.Weight, 40, 1)

	t8 := paperTiling
	t8.Tn = 8
	a8 := MustAnalyze(layerB(t), OD, t8, cfg)
	usWithin(t, a8.Lifetimes.Output, 645, 2)
}

// TestODWeightsReadOnce checks the OD pattern's key buffer-traffic
// property: weights stay in core local storage across the innermost RC
// loop, so weight buffer reads equal the weight volume exactly.
func TestODWeightsReadOnce(t *testing.T) {
	l := layerB(t)
	a := MustAnalyze(l, OD, paperTiling, hw.TestAccelerator())
	if a.BufferTraffic.Weights != l.WeightWords() {
		t.Errorf("OD weight buffer reads = %d, want %d (read once)",
			a.BufferTraffic.Weights, l.WeightWords())
	}
	id := MustAnalyze(l, ID, paperTiling, hw.TestAccelerator())
	if id.BufferTraffic.Weights <= a.BufferTraffic.Weights {
		t.Error("ID should re-read weights per output position, far more than OD")
	}
}

// TestBufferStorageEquations checks Eqs. 1-3, 6-8, 11-13 symbolically on
// an exactly-tileable layer.
func TestBufferStorageEquations(t *testing.T) {
	l := models.ConvLayer{Name: "eq", N: 32, H: 16, L: 16, M: 64, K: 3, S: 1, P: 1}
	ti := Tiling{Tm: 16, Tn: 8, Tr: 4, Tc: 4}
	cfg := hw.TestAccelerator()
	th, tl := uint64(ti.Th(l)), uint64(ti.Tl(l))
	R, C := uint64(l.R()), uint64(l.C())

	id := MustAnalyze(l, ID, ti, cfg).BufferStorage
	if id.Inputs != 32*16*16 || id.Outputs != 16*4*4 || id.Weights != 32*16*9 {
		t.Errorf("ID storage = %+v", id)
	}
	od := MustAnalyze(l, OD, ti, cfg).BufferStorage
	if od.Inputs != 8*16*16 || od.Outputs != 64*R*C || od.Weights != 16*8*9 {
		t.Errorf("OD storage = %+v", od)
	}
	wd := MustAnalyze(l, WD, ti, cfg).BufferStorage
	if wd.Inputs != 32*th*tl || wd.Outputs != 16*4*4 || wd.Weights != 64*32*9 {
		t.Errorf("WD storage = %+v", wd)
	}
}

// TestMinimumDDRTraffic: when the resident data fits, every pattern's DDR
// traffic besides WD's input halo equals the layer's data volume.
func TestMinimumDDRTraffic(t *testing.T) {
	l := models.ConvLayer{Name: "fit", N: 16, H: 14, L: 14, M: 32, K: 1, S: 1, P: 0}
	cfg := hw.TestAcceleratorEDRAM()
	ti := Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 14}
	din, dw, dout := l.InputWords(), l.WeightWords(), l.OutputWords()
	for _, k := range Kinds {
		a := MustAnalyze(l, k, ti, cfg)
		if !a.FitsBuffer {
			t.Fatalf("%v: expected to fit", k)
		}
		if a.DDRTraffic.Weights != dw || a.DDRTraffic.Outputs != dout {
			t.Errorf("%v: weight/output DDR = %+v, want %d/%d", k, a.DDRTraffic, dw, dout)
		}
		// K=1, S=1 means no halo: WD inputs also hit the minimum.
		if a.DDRTraffic.Inputs != din {
			t.Errorf("%v: input DDR = %d, want %d", k, a.DDRTraffic.Inputs, din)
		}
	}
}

// TestSpillPenalties: each pattern's reload penalty kicks in when its
// resident data type exceeds the buffer.
func TestSpillPenalties(t *testing.T) {
	cfg := hw.TestAccelerator() // small 384 KB buffer
	ti := Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 16}

	// Big inputs: ID reloads the whole input set once per output group
	// when it cannot stay resident.
	big := models.ConvLayer{Name: "big", N: 64, H: 112, L: 112, M: 128, K: 3, S: 1, P: 1}
	id := MustAnalyze(big, ID, ti, cfg)
	if id.FitsBuffer {
		t.Fatal("expected ID storage overflow")
	}
	if !id.Feasible {
		t.Fatal("ID streaming working set should still be feasible")
	}
	nM := uint64((big.M + 15) / 16)
	if id.DDRTraffic.Inputs != nM*big.InputWords() {
		t.Errorf("ID spill inputs = %d, want %d", id.DDRTraffic.Inputs, nM*big.InputWords())
	}

	// Big outputs: OD spills partial sums per remaining input pass.
	od := MustAnalyze(big, OD, ti, cfg)
	if od.FitsBuffer {
		t.Fatal("expected OD storage overflow")
	}
	nN := uint64((big.N + 15) / 16)
	wantOut := big.OutputWords() + 2*(nN-1)*big.OutputWords()
	if od.DDRTraffic.Outputs != wantOut {
		t.Errorf("OD spill outputs = %d, want %d", od.DDRTraffic.Outputs, wantOut)
	}

	// Big weights: WD reloads weights per tile position.
	deep := models.ConvLayer{Name: "deep", N: 512, H: 14, L: 14, M: 512, K: 3, S: 1, P: 1}
	wd := MustAnalyze(deep, WD, ti, cfg)
	if wd.FitsBuffer {
		t.Fatal("expected WD storage overflow")
	}
	dR := uint64(deep.R()) // Tr=1
	dC := uint64((deep.C() + 15) / 16)
	if wd.DDRTraffic.Weights != dR*dC*deep.WeightWords() {
		t.Errorf("WD spill weights = %d, want %d", wd.DDRTraffic.Weights, dR*dC*deep.WeightWords())
	}
}

// TestGroupedConvolution: grouped layers scale totals by the group count
// while storage and lifetimes stay per-group.
func TestGroupedConvolution(t *testing.T) {
	g := models.ConvLayer{Name: "g", N: 96, H: 27, L: 27, M: 256, K: 5, S: 1, P: 2, Groups: 2}
	sub := models.ConvLayer{Name: "s", N: 48, H: 27, L: 27, M: 128, K: 5, S: 1, P: 2}
	ti := Tiling{Tm: 16, Tn: 16, Tr: 1, Tc: 16}
	cfg := hw.TestAcceleratorEDRAM()
	ag := MustAnalyze(g, OD, ti, cfg)
	as := MustAnalyze(sub, OD, ti, cfg)
	if ag.MACs != 2*as.MACs {
		t.Errorf("grouped MACs = %d, want %d", ag.MACs, 2*as.MACs)
	}
	if ag.Cycles != 2*as.Cycles {
		t.Errorf("grouped cycles = %d, want %d", ag.Cycles, 2*as.Cycles)
	}
	if ag.BufferStorage != as.BufferStorage {
		t.Errorf("grouped storage = %+v, want per-group %+v", ag.BufferStorage, as.BufferStorage)
	}
	if ag.Lifetimes != as.Lifetimes {
		t.Errorf("grouped lifetimes = %+v, want per-group %+v", ag.Lifetimes, as.Lifetimes)
	}
	if ag.DDRTraffic.Total() != 2*as.DDRTraffic.Total() {
		t.Errorf("grouped DDR = %d, want %d", ag.DDRTraffic.Total(), 2*as.DDRTraffic.Total())
	}
}

// TestLifetimeOrderingProperty: across random layers and tilings, the
// structural lifetime relations of Fig. 10 hold — ID input lifetime spans
// the whole layer and is never shorter than OD's output lifetime (the
// reason ID is excluded from RANA's exploration space, §IV-C3).
func TestLifetimeOrderingProperty(t *testing.T) {
	cfg := hw.TestAccelerator()
	f := func(n8, m8, hw8, k2, tm4, tn4, tc4 uint8) bool {
		l := models.ConvLayer{
			Name: "p",
			N:    int(n8%64) + 1,
			M:    int(m8%64) + 1,
			H:    int(hw8%30) + 7,
			L:    int(hw8%30) + 7,
			K:    []int{1, 3, 5}[int(k2)%3],
			S:    1,
		}
		l.P = l.K / 2
		if l.Validate() != nil {
			return true
		}
		ti := Tiling{
			Tm: 1 << (tm4 % 5),
			Tn: 1 << (tn4 % 5),
			Tr: 1,
			Tc: 1 << (tc4 % 5),
		}
		id := MustAnalyze(l, ID, ti, cfg)
		od := MustAnalyze(l, OD, ti, cfg)
		wd := MustAnalyze(l, WD, ti, cfg)
		// Same work, same cycles regardless of control-loop order.
		if id.Cycles != od.Cycles || od.Cycles != wd.Cycles {
			return false
		}
		// ID's input lifetime is the whole layer; OD's max lifetime never
		// exceeds it; WD's weight lifetime is also the whole layer.
		return id.Lifetimes.Input == id.ExecTime &&
			od.Lifetimes.Max() <= id.Lifetimes.Input &&
			wd.Lifetimes.Weight == wd.ExecTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestBufferTrafficConservation: every pattern moves at least each
// datum's minimum once through the buffer, and utilization is in (0, 1].
func TestBufferTrafficConservation(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	f := func(n8, m8, hw8, tm4, tn4 uint8) bool {
		l := models.ConvLayer{
			Name: "p",
			N:    int(n8%48) + 1,
			M:    int(m8%48) + 1,
			H:    int(hw8%20) + 3,
			L:    int(hw8%20) + 3,
			K:    3, S: 1, P: 1,
		}
		ti := Tiling{Tm: 1 << (tm4 % 5), Tn: 1 << (tn4 % 5), Tr: 1, Tc: 4}
		for _, k := range Kinds {
			a := MustAnalyze(l, k, ti, cfg)
			if a.BufferTraffic.Inputs < l.InputWords() ||
				a.BufferTraffic.Weights < l.WeightWords() ||
				a.BufferTraffic.Outputs < l.OutputWords() {
				return false
			}
			if a.Utilization <= 0 || a.Utilization > 1 {
				return false
			}
			if a.DDRTraffic.Total() < l.InputWords()+l.WeightWords()+l.OutputWords() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTilingHelpers(t *testing.T) {
	l := models.ConvLayer{Name: "h", N: 4, H: 10, L: 10, M: 4, K: 3, S: 2, P: 1}
	ti := Tiling{Tm: 2, Tn: 2, Tr: 3, Tc: 4}
	if ti.Th(l) != 7 || ti.Tl(l) != 9 { // (Tr-1)*S+K = 2*2+3, (Tc-1)*S+K = 3*2+3
		t.Errorf("Th/Tl = %d/%d, want 7/9", ti.Th(l), ti.Tl(l))
	}
	if err := ti.Validate(); err != nil {
		t.Error(err)
	}
	if err := (Tiling{}).Validate(); err == nil {
		t.Error("zero tiling should fail validation")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{ID: "ID", OD: "OD", WD: "WD", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
	for _, k := range Kinds {
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	for _, name := range []string{"", "od", "Kind(9)", "XX"} {
		if k, ok := ParseKind(name); ok {
			t.Errorf("ParseKind(%q) = %v, want rejected", name, k)
		}
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	l := models.ConvLayer{Name: "x", N: 1, H: 4, L: 4, M: 1, K: 1, S: 1}
	ok := Tiling{Tm: 1, Tn: 1, Tr: 1, Tc: 1}
	if _, err := Analyze(l, ID, Tiling{}, hw.TestAccelerator()); err == nil {
		t.Error("invalid tiling not rejected")
	}
	if _, err := Analyze(models.ConvLayer{Name: "bad"}, ID, ok, hw.TestAccelerator()); err == nil {
		t.Error("invalid layer not rejected")
	}
	if _, err := Analyze(l, Kind(99), ok, hw.TestAccelerator()); err == nil {
		t.Error("unknown kind not rejected")
	}
	badMap := hw.TestAccelerator()
	badMap.Mapping = 99
	if _, err := Analyze(l, ID, ok, badMap); err == nil {
		t.Error("unknown mapping not rejected")
	}
}

func TestMustAnalyzePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid tiling")
		}
	}()
	MustAnalyze(models.ConvLayer{Name: "x", N: 1, H: 4, L: 4, M: 1, K: 1, S: 1},
		ID, Tiling{}, hw.TestAccelerator())
}

// TestDDRMonotoneInCapacity: for any fixed candidate, a larger buffer
// never increases off-chip traffic — capacity only relaxes penalties.
func TestDDRMonotoneInCapacity(t *testing.T) {
	f := func(n8, m8, hw8, k2, tm4, tn4, tc4 uint8, capKB uint16) bool {
		l := models.ConvLayer{
			Name: "p",
			N:    int(n8%64) + 1,
			M:    int(m8%64) + 1,
			H:    int(hw8%28) + 5,
			L:    int(hw8%28) + 5,
			K:    []int{1, 3, 5}[int(k2)%3],
			S:    1,
		}
		l.P = l.K / 2
		if l.Validate() != nil {
			return true
		}
		ti := Tiling{Tm: 1 << (tm4 % 5), Tn: 1 << (tn4 % 5), Tr: 1, Tc: 1 << (tc4 % 5)}
		small := hw.TestAccelerator().WithBufferWords(uint64(capKB%512+1) * 512)
		big := small.WithBufferWords(small.BufferWords * 4)
		for _, k := range Kinds {
			a := MustAnalyze(l, k, ti, small)
			b := MustAnalyze(l, k, ti, big)
			if b.DDRTraffic.Total() > a.DDRTraffic.Total() {
				return false
			}
			// Feasibility is monotone too.
			if a.Feasible && !b.Feasible {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestStrideLargerThanKernel: stride-2 1x1 convolutions (ResNet branch1
// layers) read only a quarter of their nominal input under WD streaming.
func TestStrideLargerThanKernel(t *testing.T) {
	l := models.ConvLayer{Name: "s2", N: 8, H: 16, L: 16, M: 8, K: 1, S: 2, P: 0}
	cfg := hw.TestAcceleratorEDRAM()
	ti := Tiling{Tm: 8, Tn: 8, Tr: 1, Tc: 8}
	a := MustAnalyze(l, WD, ti, cfg)
	// Everything fits the 1.454MB buffer, so inputs load once even in WD.
	if a.DDRTraffic.Inputs != l.InputWords() {
		t.Errorf("inputs = %d, want %d", a.DDRTraffic.Inputs, l.InputWords())
	}
	if a.Lifetimes.Output != 0 {
		t.Error("WD outputs ship immediately")
	}
}

// TestSingleElementTiling: the degenerate ⟨1,1,1,1⟩ tiling is valid and
// internally consistent for all patterns.
func TestSingleElementTiling(t *testing.T) {
	l := models.ConvLayer{Name: "one", N: 2, H: 3, L: 3, M: 2, K: 3, S: 1, P: 1}
	one := Tiling{Tm: 1, Tn: 1, Tr: 1, Tc: 1}
	cfg := hw.TestAccelerator()
	for _, k := range Kinds {
		a := MustAnalyze(l, k, one, cfg)
		if a.MACs != l.MACs() {
			t.Fatalf("%v: MACs %d", k, a.MACs)
		}
		if a.Cycles == 0 || a.Utilization <= 0 {
			t.Fatalf("%v: degenerate cycles/utilization", k)
		}
	}
}
