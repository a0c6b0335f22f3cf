// Package models defines the convolutional-layer shape tables of the four
// benchmark networks the paper evaluates — AlexNet [1], VGG-16 [2],
// GoogLeNet v1 [3] and ResNet-50 [4] — at the standard ImageNet input
// size of 224×224×3, plus the storage calculators behind Table I and
// Fig. 12.
//
// Only layer *shapes* matter to RANA's scheduling and energy analysis
// (weight values never appear in Eqs. 1–14), so the tables carry
// dimensions, strides and grouping, not parameters.
//
// A note on units: the paper reports storage in "MB" computed as
// KB = 1024 bytes, MB = 1000 KB (verified against every entry of
// Table I, e.g. VGG max inputs 224·224·64 words · 2 B = 6.27 MB).
// PaperMB reproduces that convention.
package models

import (
	"fmt"
	"hash/maphash"
	"math/bits"
)

// ConvLayer describes one convolutional layer: N×H×L input feature maps
// convolved by M kernels of size (N/Groups)×K×K with stride S and padding
// P, producing M×R×C output maps (Fig. 2a).
type ConvLayer struct {
	// Name identifies the layer, e.g. "res4a_branch1".
	Name string
	// Stage groups layers for per-stage reporting (Fig. 1), e.g. "conv4_x".
	Stage string
	// N, H, L are input channels, height and width.
	N, H, L int
	// M is the number of kernels (= output channels).
	M int
	// K is the square kernel size; S the stride; P the zero padding.
	K, S, P int
	// Groups splits the convolution channel-wise (AlexNet-style); each
	// kernel sees N/Groups input channels. 0 is treated as 1.
	Groups int
}

// groups returns the effective group count (>= 1). A pointer receiver
// because Validate runs once per priced scheduling candidate: a value
// receiver copies the whole layer at every call, even inlined.
func (l *ConvLayer) groups() int {
	if l.Groups <= 1 {
		return 1
	}
	return l.Groups
}

// R returns the output height: (H + 2P - K)/S + 1.
func (l ConvLayer) R() int { return (l.H+2*l.P-l.K)/l.S + 1 }

// C returns the output width: (L + 2P - K)/S + 1.
func (l ConvLayer) C() int { return (l.L+2*l.P-l.K)/l.S + 1 }

// Validate reports structural problems with the layer shape.
func (l ConvLayer) Validate() error {
	switch {
	case l.N <= 0 || l.H <= 0 || l.L <= 0:
		return fmt.Errorf("models: layer %q has non-positive input dims %dx%dx%d", l.Name, l.N, l.H, l.L)
	case l.M <= 0:
		return fmt.Errorf("models: layer %q has non-positive kernel count %d", l.Name, l.M)
	case l.K <= 0 || l.S <= 0 || l.P < 0:
		return fmt.Errorf("models: layer %q has invalid K=%d S=%d P=%d", l.Name, l.K, l.S, l.P)
	case l.H+2*l.P < l.K || l.L+2*l.P < l.K:
		return fmt.Errorf("models: layer %q kernel %d exceeds padded input %dx%d", l.Name, l.K, l.H+2*l.P, l.L+2*l.P)
	case l.N%l.groups() != 0 || l.M%l.groups() != 0:
		return fmt.Errorf("models: layer %q groups %d do not divide N=%d / M=%d", l.Name, l.groups(), l.N, l.M)
	}
	return nil
}

// InputWords returns the total input storage N·H·L in 16-bit words.
func (l ConvLayer) InputWords() uint64 {
	return uint64(l.N) * uint64(l.H) * uint64(l.L)
}

// OutputWords returns the total output storage M·R·C in 16-bit words.
func (l ConvLayer) OutputWords() uint64 {
	return uint64(l.M) * uint64(l.R()) * uint64(l.C())
}

// WeightWords returns the total kernel storage M·(N/G)·K² in 16-bit words.
func (l ConvLayer) WeightWords() uint64 {
	return uint64(l.M) * uint64(l.N/l.groups()) * uint64(l.K) * uint64(l.K)
}

// MACs returns the layer's multiply-accumulate count
// M·(N/G)·R·C·K² — the α coefficient of Eq. 14.
func (l ConvLayer) MACs() uint64 {
	return uint64(l.M) * uint64(l.N/l.groups()) *
		uint64(l.R()) * uint64(l.C()) * uint64(l.K) * uint64(l.K)
}

// PaperMB converts a word count to the paper's "MB" unit
// (2 bytes/word, KB = 1024 B, MB = 1000 KB). See the package comment.
func PaperMB(words uint64) float64 {
	return float64(words) * 2 / (1024 * 1000)
}

// Network is an ordered list of CONV layers with a name. Pooling and FC
// layers are omitted: the paper's analysis covers CONV layers only (§II-A),
// with other layer types transformed to execute the same way.
type Network struct {
	Name   string
	Layers []ConvLayer
}

// smallNetwork is the largest network whose duplicate-name table
// Validate keeps on the stack; the zoo's largest has 57 layers.
const smallNetwork = 64

// nameSeed seeds the layer-name hashes of Validate's duplicate check.
var nameSeed = maphash.MakeSeed()

// Validate checks every layer shape and that no two layers share a
// name. Duplicates are found in linear time with an open-addressing
// table of layer indices, at least twice as large as the network. Up to
// smallNetwork layers the table lives on the stack, so Validate, which
// sits on the scheduler's steady-state compile path, allocates nothing;
// beyond that it is allocated once per call.
func (n Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("models: network %q has no layers", n.Name)
	}
	var small [2 * smallNetwork]int32
	slots := small[:]
	if len(n.Layers) > smallNetwork {
		slots = make([]int32, 1<<bits.Len(uint(2*len(n.Layers)-1)))
	}
	mask := uint64(len(slots) - 1)
	for i := range n.Layers {
		l := &n.Layers[i]
		if err := l.Validate(); err != nil {
			return fmt.Errorf("models: network %q: %w", n.Name, err)
		}
		// A slot holds a layer's index plus one; zero is empty.
		for h := maphash.String(nameSeed, l.Name) & mask; ; h = (h + 1) & mask {
			j := slots[h]
			if j == 0 {
				slots[h] = int32(i + 1)
				break
			}
			if n.Layers[j-1].Name == l.Name {
				return fmt.Errorf("models: network %q has duplicate layer name %q", n.Name, l.Name)
			}
		}
	}
	return nil
}

// Layer returns the layer with the given name, or false if absent.
func (n Network) Layer(name string) (ConvLayer, bool) {
	for _, l := range n.Layers {
		if l.Name == name {
			return l, true
		}
	}
	return ConvLayer{}, false
}

// TotalMACs sums MACs over all layers.
func (n Network) TotalMACs() uint64 {
	var sum uint64
	for _, l := range n.Layers {
		sum += l.MACs()
	}
	return sum
}

// StorageSummary is one row of Table I: the per-network maxima of layer
// input, output and weight storage.
type StorageSummary struct {
	Model                                         string
	MaxInputWords, MaxOutputWords, MaxWeightWords uint64
}

// MaxInputMB returns the maximum layer input storage in paper-MB.
func (s StorageSummary) MaxInputMB() float64 { return PaperMB(s.MaxInputWords) }

// MaxOutputMB returns the maximum layer output storage in paper-MB.
func (s StorageSummary) MaxOutputMB() float64 { return PaperMB(s.MaxOutputWords) }

// MaxWeightMB returns the maximum layer weight storage in paper-MB.
func (s StorageSummary) MaxWeightMB() float64 { return PaperMB(s.MaxWeightWords) }

// Summarize computes the network's Table I row.
func (n Network) Summarize() StorageSummary {
	s := StorageSummary{Model: n.Name}
	for _, l := range n.Layers {
		if w := l.InputWords(); w > s.MaxInputWords {
			s.MaxInputWords = w
		}
		if w := l.OutputWords(); w > s.MaxOutputWords {
			s.MaxOutputWords = w
		}
		if w := l.WeightWords(); w > s.MaxWeightWords {
			s.MaxWeightWords = w
		}
	}
	return s
}

// Stages returns the distinct stage labels in layer order.
func (n Network) Stages() []string {
	var out []string
	seen := make(map[string]bool)
	for _, l := range n.Layers {
		if !seen[l.Stage] {
			seen[l.Stage] = true
			out = append(out, l.Stage)
		}
	}
	return out
}
