package models

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// almost reports |got-want| <= tol.
func almost(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestNetworksValidate(t *testing.T) {
	for _, n := range Benchmarks() {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestLayerCounts(t *testing.T) {
	// Layer counts of the original deployments: AlexNet 5 CONVs,
	// VGG-16 13, GoogLeNet v1 57 (3 stem + 9 modules × 6),
	// ResNet-50 53 (1 + 10 + 13 + 19 + 10).
	want := map[string]int{"AlexNet": 5, "VGG": 13, "GoogLeNet": 57, "ResNet": 53}
	for _, n := range Benchmarks() {
		if got := len(n.Layers); got != want[n.Name] {
			t.Errorf("%s: %d layers, want %d", n.Name, got, want[n.Name])
		}
	}
}

// TestTableI verifies the storage maxima against Table I of the paper
// (16-bit precision, 224×224×3 input, MB = 1000·1024 bytes).
func TestTableI(t *testing.T) {
	want := map[string][3]float64{
		"AlexNet":   {0.30, 0.57, 1.73},
		"VGG":       {6.27, 6.27, 4.61},
		"GoogLeNet": {0.39, 1.57, 1.30},
		"ResNet":    {1.57, 1.57, 4.61},
	}
	for _, n := range Benchmarks() {
		s := n.Summarize()
		w := want[n.Name]
		if !almost(s.MaxInputMB(), w[0], 0.005) {
			t.Errorf("%s max inputs = %.3f MB, want %.2f", n.Name, s.MaxInputMB(), w[0])
		}
		if !almost(s.MaxOutputMB(), w[1], 0.005) {
			t.Errorf("%s max outputs = %.3f MB, want %.2f", n.Name, s.MaxOutputMB(), w[1])
		}
		if !almost(s.MaxWeightMB(), w[2], 0.005) {
			t.Errorf("%s max weights = %.3f MB, want %.2f", n.Name, s.MaxWeightMB(), w[2])
		}
	}
}

func TestRunningCaseLayers(t *testing.T) {
	// Layer-A: ResNet res4a_branch1 — 1×1 conv, 512→1024, stride 2,
	// 28×28 → 14×14 (§III-A).
	resnet := ResNet()
	a, ok := resnet.Layer("res4a_branch1")
	if !ok {
		t.Fatal("res4a_branch1 missing from ResNet")
	}
	if a.N != 512 || a.M != 1024 || a.K != 1 || a.S != 2 || a.H != 28 {
		t.Errorf("Layer-A shape mismatch: %+v", a)
	}
	if a.R() != 14 || a.C() != 14 {
		t.Errorf("Layer-A output = %dx%d, want 14x14", a.R(), a.C())
	}
	// Layer-B: VGG conv4_2 (the 9th CONV layer) — 3×3, 512→512 at 28×28.
	vgg := VGG()
	b, ok := vgg.Layer("conv4_2")
	if !ok {
		t.Fatal("conv4_2 missing from VGG")
	}
	if vgg.Layers[8].Name != "conv4_2" {
		t.Errorf("conv4_2 is layer %q at index 8, want the 9th conv", vgg.Layers[8].Name)
	}
	if b.N != 512 || b.M != 512 || b.K != 3 || b.H != 28 || b.R() != 28 {
		t.Errorf("Layer-B shape mismatch: %+v", b)
	}
}

func TestGroupedLayerAccounting(t *testing.T) {
	l := ConvLayer{Name: "g", N: 8, H: 6, L: 6, M: 4, K: 3, S: 1, P: 1, Groups: 2}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Weights: M·(N/G)·K² = 4·4·9.
	if got := l.WeightWords(); got != 144 {
		t.Errorf("WeightWords = %d, want 144", got)
	}
	// MACs: M·(N/G)·R·C·K² = 4·4·36·9.
	if got := l.MACs(); got != 4*4*36*9 {
		t.Errorf("MACs = %d, want %d", got, 4*4*36*9)
	}
}

func TestValidateRejectsBadLayers(t *testing.T) {
	bad := []ConvLayer{
		{Name: "neg", N: -1, H: 4, L: 4, M: 1, K: 1, S: 1},
		{Name: "zeroM", N: 1, H: 4, L: 4, M: 0, K: 1, S: 1},
		{Name: "bigK", N: 1, H: 2, L: 2, M: 1, K: 5, S: 1},
		{Name: "badG", N: 3, H: 4, L: 4, M: 2, K: 1, S: 1, Groups: 2},
		{Name: "zeroS", N: 1, H: 4, L: 4, M: 1, K: 1, S: 0},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layer %q: expected validation error", l.Name)
		}
	}
}

func TestNetworkValidateRejectsDuplicates(t *testing.T) {
	n := Network{Name: "dup", Layers: []ConvLayer{
		{Name: "a", N: 1, H: 4, L: 4, M: 1, K: 1, S: 1},
		{Name: "a", N: 1, H: 4, L: 4, M: 1, K: 1, S: 1},
	}}
	if err := n.Validate(); err == nil {
		t.Error("expected duplicate-name error")
	}
	if err := (Network{Name: "empty"}).Validate(); err == nil {
		t.Error("expected empty-network error")
	}
}

// TestOutputDimsProperty checks R/C against the defining identity for
// random valid geometries: the last window must fit, the next must not.
func TestOutputDimsProperty(t *testing.T) {
	f := func(h8, k4, s3, p2 uint8) bool {
		k := int(k4%5) + 1
		s := int(s3%3) + 1
		p := int(p2 % 3)
		h := int(h8%40) + k // ensure H >= K
		l := ConvLayer{Name: "p", N: 1, H: h, L: h, M: 1, K: k, S: s, P: p}
		if l.Validate() != nil {
			return true // skip invalid combos
		}
		r := l.R()
		lastStart := (r - 1) * s
		nextStart := r * s
		return lastStart+k <= h+2*p && nextStart+k > h+2*p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPaperMB(t *testing.T) {
	// VGG conv1_2 inputs: 224·224·64 words = 6.27 paper-MB.
	if got := PaperMB(224 * 224 * 64); !almost(got, 6.27, 0.005) {
		t.Errorf("PaperMB = %.4f, want 6.27", got)
	}
}

func TestStages(t *testing.T) {
	r := ResNet()
	want := []string{"conv1", "conv2_x", "conv3_x", "conv4_x", "conv5_x"}
	got := r.Stages()
	if len(got) != len(want) {
		t.Fatalf("Stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stage %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("VGG"); !ok {
		t.Error("ByName(VGG) not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) unexpectedly found")
	}
	// The shared table is the zoo as Benchmarks builds it, clipped so an
	// append by one holder cannot write into another's layers.
	for _, want := range Benchmarks() {
		got, ok := ByName(want.Name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("ByName(%s) differs from Benchmarks()", want.Name)
		}
		if cap(got.Layers) != len(got.Layers) {
			t.Errorf("ByName(%s): cap %d != len %d", want.Name, cap(got.Layers), len(got.Layers))
		}
		grown := append(got.Layers, ConvLayer{Name: "extra"})
		grown[0].Name = "renamed"
		if again, _ := ByName(want.Name); !reflect.DeepEqual(again, want) {
			t.Errorf("appending to ByName(%s)'s layers changed the table", want.Name)
		}
	}
}

func TestTotalMACs(t *testing.T) {
	// VGG-16 CONV MACs ≈ 15.3 G (well-known figure).
	g := float64(VGG().TotalMACs()) / 1e9
	if g < 15.0 || g > 15.7 {
		t.Errorf("VGG total MACs = %.2fG, want ≈15.3G", g)
	}
	// ResNet-50 CONV MACs ≈ 3.8-4.1 G.
	g = float64(ResNet().TotalMACs()) / 1e9
	if g < 3.5 || g > 4.2 {
		t.Errorf("ResNet total MACs = %.2fG, want ≈3.9G", g)
	}
}
