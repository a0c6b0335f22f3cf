package verify

import (
	"errors"
	"strings"
	"testing"

	"rana/internal/fault"
	"rana/internal/fixed"
	"rana/internal/hw"
	"rana/internal/memctrl"
	"rana/internal/models"
	"rana/internal/pattern"
	"rana/internal/retention"
	"rana/internal/sched"
	"rana/internal/training"
)

// testOracle pretrains the demo model once for the whole test binary —
// the same economy the CLI applies across the zoo.
var testOracle = NewFaultOracle(training.Config{
	Epochs: 3, LR: 0.02, Momentum: 0.9, Format: fixed.Q88, Seed: 1,
}, 160)

func faultOpts() sched.Options {
	return sched.Options{
		Patterns:        []pattern.Kind{pattern.OD, pattern.WD},
		RefreshInterval: retention.TolerableRetentionTime,
		Controller:      memctrl.RefreshOptimized{},
	}
}

func TestCompareFaultsAlexNet(t *testing.T) {
	r, err := CompareFaults(models.AlexNet(), hw.TestAcceleratorEDRAM(), faultOpts(), testOracle, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("fault differential diverged:\n%s", r)
	}
	swept := strings.Join(r.Notes, " ")
	// The admissible approximate points must have been exercised and the
	// over-budget corner rejected.
	for _, want := range []string{"approx-dram@v0.9", "approx-dram@v0.8", "approx-dram@v0.7!"} {
		if !strings.Contains(swept, want) {
			t.Errorf("sweep %q missing %s", swept, want)
		}
	}
}

func TestCompareFaultsDeterministic(t *testing.T) {
	net := models.GoogLeNet()
	cfg := hw.TestAcceleratorEDRAM()
	a, err := CompareFaults(net, cfg, faultOpts(), testOracle, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompareFaults(net, cfg, faultOpts(), testOracle, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same-seed reports differ:\n%s\nvs\n%s", a, b)
	}
	if !a.OK() {
		t.Errorf("fault differential diverged:\n%s", a)
	}
}

func TestCompareFaultsRejectsBadConstraint(t *testing.T) {
	_, err := CompareFaults(models.AlexNet(), hw.TestAcceleratorEDRAM(), faultOpts(), nil, 2, 1)
	if err == nil {
		t.Fatal("constraint 2 accepted")
	}
	var lerr *training.LadderError
	if !errors.As(err, &lerr) {
		t.Errorf("error %v is not a *training.LadderError", err)
	}
}

func TestFaultOracleProbes(t *testing.T) {
	if base := testOracle.Baseline(); base <= 0.5 {
		t.Fatalf("oracle baseline %g too weak to discriminate", base)
	}
	rel, det := testOracle.Relative(0)
	if rel != 1 || !det {
		t.Errorf("clean probe = (%g, %v), want (1, true)", rel, det)
	}
	// An admitted rate barely perturbs the pretrained model; a huge rate
	// must visibly degrade it — the oracle can tell the two apart.
	relLow, det := testOracle.Relative(1e-5)
	if !det {
		t.Error("low-rate probe not deterministic")
	}
	if relLow < DefaultOracleConstraint {
		t.Errorf("admitted rate 1e-5 degraded the oracle to %g", relLow)
	}
	relHigh, _ := testOracle.Relative(0.25)
	if relHigh >= relLow {
		t.Errorf("rate 0.25 (rel %g) not worse than 1e-5 (rel %g)", relHigh, relLow)
	}
	// Cached probes come back identical.
	again, _ := testOracle.Relative(1e-5)
	if again != relLow {
		t.Errorf("cache returned %g, want %g", again, relLow)
	}
}

// TestCompareFaultFunctional: a fault mask over refreshing and
// non-refreshing buffers corrupts exactly the words it names, and is
// inert at rate 0.
func TestCompareFaultFunctional(t *testing.T) {
	l := models.ConvLayer{Name: "spot", N: 2, H: 8, L: 8, M: 2, K: 3, S: 1, P: 1}
	cfg := hw.TestAcceleratorEDRAM()
	const rate, seed = 0.1, 5
	// Non-refreshing (SRAM) and refreshing (eDRAM, approximate eDRAM)
	// paths.
	for _, spec := range []string{"sram", "edram", "approx-dram@v0.9"} {
		// The checks must not be vacuous: the same derivation the
		// oracle performs has to actually place flips in the output
		// region.
		m, err := fault.New(int(l.OutputWords()), rate, fault.MixSeed(seed, spec+"/"+l.Name))
		if err != nil {
			t.Fatal(err)
		}
		if len(m.XorWords()) == 0 {
			t.Fatalf("%s: test premise broken: empty mask", spec)
		}
		r, err := CompareFunctional(spec, l, cfg, rate, seed, DefaultTolerances())
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !r.OK() {
			t.Errorf("%s:\n%s", spec, r)
		}
	}
	// Rate 0: no flips, no errors — the overlay is inert.
	r, err := CompareFunctional("sram", l, cfg, 0, seed, DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Errorf("inert overlay diverged:\n%s", r)
	}
	if _, err := CompareFunctional("ddr3", l, cfg, rate, seed, DefaultTolerances()); err == nil {
		t.Error("off-chip backend accepted as a buffer")
	}
}
