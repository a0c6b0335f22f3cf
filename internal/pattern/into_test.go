package pattern

import (
	"math/rand"
	"testing"

	"rana/internal/hw"
	"rana/internal/models"
)

// TestAnalyzeTraversalIntoMatchesValueForm: across the zoo (AlexNet's
// grouped layers included), both array mappings, every pattern, a
// seeded tiling sample and the linear and blocked traversals, the
// in-place form written over the previous candidate's result equals
// the value form field for field.
func TestAnalyzeTraversalIntoMatchesValueForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pixel := hw.TestAcceleratorEDRAM()
	input := pixel
	input.Mapping = hw.MapOutputInput
	travs := []Traversal{Linear, {Blocks: 2}, {Blocks: 4}, {Blocks: 8}}
	var dst Analysis // reused, dirty, across every candidate
	grouped := 0
	for _, cfg := range []hw.Config{pixel, input} {
		for _, net := range models.Benchmarks() {
			for i := range net.Layers {
				l := &net.Layers[i]
				g := max(l.Groups, 1)
				if g > 1 {
					grouped++
				}
				for s := 0; s < 6; s++ {
					ti := Tiling{
						Tm: 1 + rng.Intn(l.M/g),
						Tn: 1 + rng.Intn(l.N/g),
						Tr: 1 + rng.Intn(l.R()),
						Tc: 1 + rng.Intn(l.C()),
					}
					for _, k := range Kinds {
						for _, trv := range travs {
							want, err := AnalyzeTraversal(*l, k, ti, cfg, trv)
							if err != nil {
								t.Fatal(err)
							}
							if err := AnalyzeTraversalInto(&dst, l, k, ti, &cfg, trv); err != nil {
								t.Fatal(err)
							}
							if dst != want {
								t.Fatalf("%s/%s %v %v %v %v:\nin place   %+v\nvalue form %+v",
									net.Name, l.Name, k, ti, trv, cfg.Mapping, dst, want)
							}
						}
					}
				}
			}
		}
	}
	if grouped == 0 {
		t.Fatal("the zoo covered no grouped layer")
	}
}

// TestAnalyzeTraversalIntoErrorsMatchValueForm: every rejected input
// fails the in-place form with the value form's error text, and leaves
// the destination untouched.
func TestAnalyzeTraversalIntoErrorsMatchValueForm(t *testing.T) {
	cfg := hw.TestAcceleratorEDRAM()
	badMapping := cfg
	badMapping.Mapping = hw.Mapping(99)
	good := layerB(t)
	for _, tc := range []struct {
		name string
		l    models.ConvLayer
		k    Kind
		ti   Tiling
		trv  Traversal
		cfg  hw.Config
		want string
	}{
		{"layer", models.ConvLayer{Name: "bad"}, OD, paperTiling, Linear, cfg,
			`models: layer "bad" has non-positive input dims 0x0x0`},
		{"tiling", good, OD, Tiling{Tm: 0, Tn: 1, Tr: 1, Tc: 1}, Linear, cfg,
			"pattern: non-positive tiling <Tm=0,Tn=1,Tr=1,Tc=1>"},
		{"traversal", good, OD, paperTiling, Traversal{Blocks: -1}, cfg,
			"pattern: negative traversal blocks -1"},
		{"kind", good, Kind(7), paperTiling, Linear, cfg,
			"pattern: unknown kind 7"},
		{"mapping", good, OD, paperTiling, Linear, badMapping,
			"pattern: unknown mapping Mapping(99)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, valueErr := AnalyzeTraversal(tc.l, tc.k, tc.ti, tc.cfg, tc.trv)
			dst := MustAnalyze(good, WD, paperTiling, cfg)
			before := dst
			intoErr := AnalyzeTraversalInto(&dst, &tc.l, tc.k, tc.ti, &tc.cfg, tc.trv)
			if valueErr == nil || intoErr == nil {
				t.Fatalf("errors %v / %v, want both forms to fail", valueErr, intoErr)
			}
			if valueErr.Error() != tc.want || intoErr.Error() != tc.want {
				t.Fatalf("value form %q, in place %q, want %q", valueErr, intoErr, tc.want)
			}
			if dst != before {
				t.Fatal("a rejected call wrote the destination")
			}
		})
	}
}
