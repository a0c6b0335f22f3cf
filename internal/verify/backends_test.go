package verify

import (
	"strings"
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
	"rana/internal/verify/gen"
)

func TestCompareBackendsOnZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-zoo backend sweep")
	}
	cfg := hw.TestAcceleratorEDRAM()
	for _, net := range models.Benchmarks() {
		t.Run(net.Name, func(t *testing.T) {
			r, err := CompareBackends(net, cfg, zooOptions(), DefaultTolerances())
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Error(r)
			}
			t.Logf("%s", r)
		})
	}
}

func TestCompareBackendsSweepsNonNominalPoints(t *testing.T) {
	// The acceptance property: at least one non-default operating point
	// must be scheduled and validated end to end. The sweep list proves
	// the pinned approximate points actually ran.
	net, ok := models.ByName("AlexNet")
	if !ok {
		t.Fatal("AlexNet missing from the zoo")
	}
	cfg := hw.TestAcceleratorEDRAM()
	r, err := CompareBackends(net, cfg, zooOptions(), DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatal(r)
	}
	swept := strings.Join(r.Notes, " ")
	for _, want := range []string{"edram", "sram", "approx-dram", "approx-dram@v0.9", "approx-dram@v0.8", "reram@fast-write"} {
		if !strings.Contains(swept, want) {
			t.Errorf("sweep %v missed %q", r.Notes, want)
		}
	}
	// v0.7's bit-error rate exceeds the default tolerable budget; the
	// sweep must not schedule it.
	if strings.Contains(swept, "v0.7") {
		t.Errorf("sweep %v priced the over-budget v0.7 point", r.Notes)
	}
}

// TestCompareBackendFunctional: one tiny layer runs word-accurately
// through a point of each buffer backend, refreshing or not.
func TestCompareBackendFunctional(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	g := gen.New(3)
	l := g.TinyLayer()
	for _, spec := range []string{"edram", "approx-dram@v0.8", "sram", "reram@fast-write"} {
		t.Run(spec, func(t *testing.T) {
			r, err := CompareFunctional(spec, l, cfg, 0, 7, DefaultTolerances())
			if err != nil {
				t.Fatal(err)
			}
			if !r.OK() {
				t.Error(r)
			}
		})
	}
}

// TestCompareBackendFunctionalRejectsBadSpecs: a spec that names no
// buffer point is rejected, with and without a fault mask.
func TestCompareBackendFunctionalRejectsBadSpecs(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	l := gen.New(3).TinyLayer()
	for _, spec := range []string{"", "ddr3", "edram@no-such-point", "nope"} {
		for _, rate := range []float64{0, 0.1} {
			if _, err := CompareFunctional(spec, l, cfg, rate, 1, DefaultTolerances()); err == nil {
				t.Errorf("spec %q at fault rate %g accepted", spec, rate)
			}
		}
	}
}
