package sched

// The stable wire encoding of a compiled schedule. One projection of
// Plan is shared by three consumers so they can never drift apart: the
// golden regression files under testdata/golden, the `rana-sched -json`
// CLI output, and the ranad serving API's /v1/schedule responses.
//
// The encoding carries what an execution phase (or a downstream tool)
// needs to reproduce the schedule's decisions — per layer the chosen
// pattern and tiling, the refresh decision, the bank allocation and the
// Eq. 14 operation counts, plus the network totals. Quantities that
// re-derive from these (per-bank flag vectors, priced energy components)
// are intentionally omitted; internal/verify covers them.

import (
	"fmt"
	"strconv"

	"rana/internal/jsonenc"
	"rana/internal/mem"
	"rana/internal/memctrl"
	"rana/internal/pattern"
)

// PlanJSON is the serialized view of a whole-network schedule. Backend
// and the per-layer operating points are omitted on the default path
// (default technology adapter, nominal corner), so pre-backend plans —
// and therefore the committed goldens — encode byte-identically.
type PlanJSON struct {
	Network string `json:"network"`
	// Backend names the memory-technology backend the plan was priced
	// against; empty/omitted means the config's default adapter.
	Backend  string      `json:"backend,omitempty"`
	Layers   []LayerJSON `json:"layers"`
	MACs     uint64      `json:"macs"`
	Buffer   uint64      `json:"buffer_accesses"`
	Refresh  uint64      `json:"refresh_words"`
	DDR      uint64      `json:"ddr_accesses"`
	EnergyPJ float64     `json:"energy_pj"`
	ExecNs   int64       `json:"exec_ns"`
}

// LayerJSON is one layer's serialized configuration.
type LayerJSON struct {
	Name    string         `json:"name"`
	Pattern string         `json:"pattern"`
	Tiling  pattern.Tiling `json:"tiling"`
	// Point is the chosen memory-backend operating point; omitted at
	// the nominal corner.
	Point string `json:"op,omitempty"`
	// Traversal is the chosen tile traversal order; omitted for the
	// linear nest. Mapping is the chosen data-mapping policy; omitted
	// for row-major placement. Defaults omit both, so pre-axis plans —
	// and the committed goldens — encode byte-identically.
	Traversal string        `json:"traversal,omitempty"`
	Mapping   string        `json:"mapping,omitempty"`
	Needs     memctrl.Needs `json:"needs"`
	Alloc     [3]int        `json:"alloc"`
	Refresh   uint64        `json:"refresh_words"`
	ExecNs    int64         `json:"exec_ns"`
}

// Encode projects a plan onto the wire encoding.
func Encode(p *Plan) PlanJSON {
	g := PlanJSON{
		Network:  p.Network.Name,
		Backend:  mem.NormalizeName(p.Options.Backend, p.Config.BufferTech),
		MACs:     p.Totals.MACs,
		Buffer:   p.Totals.BufferAccesses,
		Refresh:  p.Totals.Refreshes,
		DDR:      p.Totals.DDRAccesses,
		EnergyPJ: p.Energy.Total(),
		ExecNs:   p.ExecTime.Nanoseconds(),
	}
	for i := range p.Layers {
		lp := &p.Layers[i]
		g.Layers = append(g.Layers, LayerJSON{
			Name:      p.Network.Layers[i].Name,
			Pattern:   lp.Analysis.Pattern.String(),
			Tiling:    lp.Analysis.Tiling,
			Point:     lp.Point,
			Traversal: lp.Traversal,
			Mapping:   lp.Mapping,
			Needs:     lp.Needs,
			Alloc:     [3]int{lp.Alloc.InputBanks, lp.Alloc.OutputBanks, lp.Alloc.WeightBanks},
			Refresh:   lp.Counts.Refreshes,
			ExecNs:    lp.Analysis.ExecTime.Nanoseconds(),
		})
	}
	return g
}

// AppendPlanJSON appends the bytes json.Marshal(Encode(p)) gives to dst,
// written straight from the plan: no intermediate PlanJSON and no
// reflection. ranad renders its schedule bodies with it. Encode and
// PlanJSON stay the reference — the goldens, `rana-sched -json` and the
// verify matrix marshal them, and TestGoldenSchedules and the matrix
// hold this encoder to their bytes. A non-finite network energy, which
// json.Marshal rejects, is an error here too; dst then comes back at its
// length on entry.
func AppendPlanJSON(dst []byte, p *Plan) ([]byte, error) {
	start := len(dst)
	dst = jsonenc.String(append(dst, `{"network":`...), p.Network.Name)
	dst = jsonenc.OmitString(dst, `,"backend":`, mem.NormalizeName(p.Options.Backend, p.Config.BufferTech))
	dst = append(dst, `,"layers":`...)
	if len(p.Layers) == 0 {
		dst = append(dst, "null"...)
	}
	for i := range p.Layers {
		lp := &p.Layers[i]
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = jsonenc.String(append(dst, `{"name":`...), p.Network.Layers[i].Name)
		dst = jsonenc.String(append(dst, `,"pattern":`...), lp.Analysis.Pattern.String())
		t := lp.Analysis.Tiling
		dst = strconv.AppendInt(append(dst, `,"tiling":{"Tm":`...), int64(t.Tm), 10)
		dst = strconv.AppendInt(append(dst, `,"Tn":`...), int64(t.Tn), 10)
		dst = strconv.AppendInt(append(dst, `,"Tr":`...), int64(t.Tr), 10)
		dst = strconv.AppendInt(append(dst, `,"Tc":`...), int64(t.Tc), 10)
		dst = append(dst, '}')
		dst = jsonenc.OmitString(dst, `,"op":`, lp.Point)
		dst = jsonenc.OmitString(dst, `,"traversal":`, lp.Traversal)
		dst = jsonenc.OmitString(dst, `,"mapping":`, lp.Mapping)
		dst = strconv.AppendBool(append(dst, `,"needs":{"Inputs":`...), lp.Needs.Inputs)
		dst = strconv.AppendBool(append(dst, `,"Outputs":`...), lp.Needs.Outputs)
		dst = strconv.AppendBool(append(dst, `,"Weights":`...), lp.Needs.Weights)
		dst = strconv.AppendInt(append(dst, `},"alloc":[`...), int64(lp.Alloc.InputBanks), 10)
		dst = strconv.AppendInt(append(dst, ','), int64(lp.Alloc.OutputBanks), 10)
		dst = strconv.AppendInt(append(dst, ','), int64(lp.Alloc.WeightBanks), 10)
		dst = strconv.AppendUint(append(dst, `],"refresh_words":`...), lp.Counts.Refreshes, 10)
		dst = strconv.AppendInt(append(dst, `,"exec_ns":`...), lp.Analysis.ExecTime.Nanoseconds(), 10)
		dst = append(dst, '}')
	}
	if len(p.Layers) > 0 {
		dst = append(dst, ']')
	}
	dst = strconv.AppendUint(append(dst, `,"macs":`...), p.Totals.MACs, 10)
	dst = strconv.AppendUint(append(dst, `,"buffer_accesses":`...), p.Totals.BufferAccesses, 10)
	dst = strconv.AppendUint(append(dst, `,"refresh_words":`...), p.Totals.Refreshes, 10)
	dst = strconv.AppendUint(append(dst, `,"ddr_accesses":`...), p.Totals.DDRAccesses, 10)
	energy := p.Energy.Total()
	dst, ok := jsonenc.Float(append(dst, `,"energy_pj":`...), energy)
	if !ok {
		return dst[:start], fmt.Errorf("sched: encoding the plan of %s: non-finite energy %v pJ", p.Network.Name, energy)
	}
	dst = strconv.AppendInt(append(dst, `,"exec_ns":`...), p.ExecTime.Nanoseconds(), 10)
	return append(dst, '}'), nil
}
