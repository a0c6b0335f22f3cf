package models

// This file defines the four benchmark networks of the paper's evaluation
// (§V-A) at 224×224×3 input. Shapes follow the original Caffe deployments
// the paper's Table I numbers were verified against (AlexNet uses the
// 227×227 crop of the Caffe reference model).

import (
	"slices"
	"sync"
)

// AlexNet returns the 5-CONV-layer AlexNet [1] with its two grouped
// convolutions.
func AlexNet() Network {
	return Network{Name: "AlexNet", Layers: []ConvLayer{
		{Name: "conv1", Stage: "conv1", N: 3, H: 227, L: 227, M: 96, K: 11, S: 4, P: 0},
		{Name: "conv2", Stage: "conv2", N: 96, H: 27, L: 27, M: 256, K: 5, S: 1, P: 2, Groups: 2},
		{Name: "conv3", Stage: "conv3", N: 256, H: 13, L: 13, M: 384, K: 3, S: 1, P: 1},
		{Name: "conv4", Stage: "conv4", N: 384, H: 13, L: 13, M: 384, K: 3, S: 1, P: 1, Groups: 2},
		{Name: "conv5", Stage: "conv5", N: 384, H: 13, L: 13, M: 256, K: 3, S: 1, P: 1, Groups: 2},
	}}
}

// VGG returns the 13-CONV-layer VGG-16 [2]. The paper's running example
// Layer-B ("vgg_conv9") is the 9th CONV layer, conv4_2.
func VGG() Network {
	var ls []ConvLayer
	add := func(name, stage string, n, hw, m int) {
		ls = append(ls, ConvLayer{Name: name, Stage: stage, N: n, H: hw, L: hw, M: m, K: 3, S: 1, P: 1})
	}
	add("conv1_1", "conv1", 3, 224, 64)
	add("conv1_2", "conv1", 64, 224, 64)
	add("conv2_1", "conv2", 64, 112, 128)
	add("conv2_2", "conv2", 128, 112, 128)
	add("conv3_1", "conv3", 128, 56, 256)
	add("conv3_2", "conv3", 256, 56, 256)
	add("conv3_3", "conv3", 256, 56, 256)
	add("conv4_1", "conv4", 256, 28, 512)
	add("conv4_2", "conv4", 512, 28, 512) // Layer-B
	add("conv4_3", "conv4", 512, 28, 512)
	add("conv5_1", "conv5", 512, 14, 512)
	add("conv5_2", "conv5", 512, 14, 512)
	add("conv5_3", "conv5", 512, 14, 512)
	return Network{Name: "VGG", Layers: ls}
}

// inceptionSpec holds the six branch widths of one GoogLeNet inception
// module: 1×1, 3×3 reduce, 3×3, 5×5 reduce, 5×5, pool projection.
type inceptionSpec struct {
	name                   string
	in, hw                 int
	p1, r3, p3, r5, p5, pp int
}

// GoogLeNet returns the 57-CONV-layer GoogLeNet v1 [3]: the 3-layer stem
// plus 9 inception modules of 6 convolutions each.
func GoogLeNet() Network {
	ls := []ConvLayer{
		{Name: "conv1_7x7_s2", Stage: "stem", N: 3, H: 224, L: 224, M: 64, K: 7, S: 2, P: 3},
		{Name: "conv2_3x3_reduce", Stage: "stem", N: 64, H: 56, L: 56, M: 64, K: 1, S: 1, P: 0},
		{Name: "conv2_3x3", Stage: "stem", N: 64, H: 56, L: 56, M: 192, K: 3, S: 1, P: 1},
	}
	specs := []inceptionSpec{
		{"3a", 192, 28, 64, 96, 128, 16, 32, 32},
		{"3b", 256, 28, 128, 128, 192, 32, 96, 64},
		{"4a", 480, 14, 192, 96, 208, 16, 48, 64},
		{"4b", 512, 14, 160, 112, 224, 24, 64, 64},
		{"4c", 512, 14, 128, 128, 256, 24, 64, 64},
		{"4d", 512, 14, 112, 144, 288, 32, 64, 64},
		{"4e", 528, 14, 256, 160, 320, 32, 128, 128},
		{"5a", 832, 7, 256, 160, 320, 32, 128, 128},
		{"5b", 832, 7, 384, 192, 384, 48, 128, 128},
	}
	for _, s := range specs {
		stage := "inception_" + s.name[:1] // groups 3a/3b -> inception_3, etc.
		pfx := "inception_" + s.name + "_"
		ls = append(ls,
			ConvLayer{Name: pfx + "1x1", Stage: stage, N: s.in, H: s.hw, L: s.hw, M: s.p1, K: 1, S: 1, P: 0},
			ConvLayer{Name: pfx + "3x3_reduce", Stage: stage, N: s.in, H: s.hw, L: s.hw, M: s.r3, K: 1, S: 1, P: 0},
			ConvLayer{Name: pfx + "3x3", Stage: stage, N: s.r3, H: s.hw, L: s.hw, M: s.p3, K: 3, S: 1, P: 1},
			ConvLayer{Name: pfx + "5x5_reduce", Stage: stage, N: s.in, H: s.hw, L: s.hw, M: s.r5, K: 1, S: 1, P: 0},
			ConvLayer{Name: pfx + "5x5", Stage: stage, N: s.r5, H: s.hw, L: s.hw, M: s.p5, K: 5, S: 1, P: 2},
			ConvLayer{Name: pfx + "pool_proj", Stage: stage, N: s.in, H: s.hw, L: s.hw, M: s.pp, K: 1, S: 1, P: 0},
		)
	}
	return Network{Name: "GoogLeNet", Layers: ls}
}

// ResNet returns the 53-CONV-layer ResNet-50 [4] in Caffe naming; the
// paper's running example Layer-A is "res4a_branch1".
func ResNet() Network {
	ls := []ConvLayer{
		{Name: "conv1", Stage: "conv1", N: 3, H: 224, L: 224, M: 64, K: 7, S: 2, P: 3},
	}
	// bottleneck appends one ResNet bottleneck block: 1x1 reduce, 3x3,
	// 1x1 expand, plus the projection shortcut (branch1) on the first
	// block of a stage. Downsampling stages stride on branch2a/branch1.
	bottleneck := func(stage, block string, in, hw, mid, out, stride int) {
		name := "res" + block + "_branch"
		outHW := hw / stride
		if stride == 1 {
			outHW = hw
		}
		if first := block[len(block)-1] == 'a'; first {
			ls = append(ls, ConvLayer{Name: name + "1", Stage: stage,
				N: in, H: hw, L: hw, M: out, K: 1, S: stride, P: 0})
		}
		ls = append(ls,
			ConvLayer{Name: name + "2a", Stage: stage, N: in, H: hw, L: hw, M: mid, K: 1, S: stride, P: 0},
			ConvLayer{Name: name + "2b", Stage: stage, N: mid, H: outHW, L: outHW, M: mid, K: 3, S: 1, P: 1},
			ConvLayer{Name: name + "2c", Stage: stage, N: mid, H: outHW, L: outHW, M: out, K: 1, S: 1, P: 0},
		)
	}
	type stageSpec struct {
		stage       string
		blocks      []string
		in, hw      int
		mid, out    int
		firstStride int
	}
	stages := []stageSpec{
		{"conv2_x", []string{"2a", "2b", "2c"}, 64, 56, 64, 256, 1},
		{"conv3_x", []string{"3a", "3b", "3c", "3d"}, 256, 56, 128, 512, 2},
		{"conv4_x", []string{"4a", "4b", "4c", "4d", "4e", "4f"}, 512, 28, 256, 1024, 2},
		{"conv5_x", []string{"5a", "5b", "5c"}, 1024, 14, 512, 2048, 2},
	}
	for _, st := range stages {
		in, hw := st.in, st.hw
		for i, b := range st.blocks {
			stride := 1
			if i == 0 {
				stride = st.firstStride
			}
			bottleneck(st.stage, b, in, hw, st.mid, st.out, stride)
			hw /= stride
			in = st.out
		}
	}
	return Network{Name: "ResNet", Layers: ls}
}

// Benchmarks returns the four evaluation networks in the paper's order.
func Benchmarks() []Network {
	return []Network{AlexNet(), VGG(), GoogLeNet(), ResNet()}
}

// zoo is the table ByName answers from, built on first use. ByName sits
// on ranad's per-request path, where rebuilding all four networks to
// look one up cost more than hashing the request. Each Layers slice is
// clipped to cap == len, so a caller appending to the network it got
// reallocates instead of writing into the table's backing array.
var zoo = sync.OnceValue(func() []Network {
	nets := Benchmarks()
	for i := range nets {
		nets[i].Layers = slices.Clip(nets[i].Layers)
	}
	return nets
})

// ByName returns the benchmark network with the given name
// (case-sensitive), or false. The network's Layers are shared by every
// caller: read them, or copy before modifying a layer in place.
func ByName(name string) (Network, bool) {
	for _, n := range zoo() {
		if n.Name == name {
			return n, true
		}
	}
	return Network{}, false
}
