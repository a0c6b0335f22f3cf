package sched

// Memory-backend resolution: how Options.Backend / Options.OperatingPoint
// / Options.ErrorBudget map onto the registry (internal/mem) and become
// the scheduler's operating-point search axis.
//
// Resolution rules, shared with the serving layer's request validation:
//
//   - An empty backend selects the config's default technology adapter
//     (mem.DefaultName: "edram" for EDRAM configs, "sram" for SRAM), so
//     every pre-backend schedule resolves exactly as before.
//   - A pinned operating point collapses the axis to that single point;
//     otherwise the backend's whole point ladder is searched.
//   - The error budget (default: the paper's tolerable 10⁻⁵ failure
//     rate, Fig. 11) gates which points enter the space — the EDEN
//     resilience-curve admission: a point whose raw bit-error rate
//     exceeds what the network was trained to tolerate is not a legal
//     deployment, no matter how cheap.

import (
	"fmt"

	"rana/internal/energy"
	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/retention"
)

// effectiveErrorBudget resolves the option (zero → the paper's
// tolerable failure rate).
func (o Options) effectiveErrorBudget() float64 {
	if o.ErrorBudget > 0 {
		return o.ErrorBudget
	}
	return retention.TolerableFailureRate
}

// layerBudget resolves the error budget one layer's admission runs
// against: the uniform budget, tightened by the layer's own tolerable
// rate from the per-layer resilience curves when one is present.
// Per-layer budgets only ever tighten — a curve cannot admit a point
// the uniform budget rejects.
func (o Options) layerBudget(layer string) float64 {
	budget := o.effectiveErrorBudget()
	if lb, ok := o.LayerBudgets[layer]; ok && lb > 0 && lb < budget {
		return lb
	}
	return budget
}

// ResolveBackend maps the options onto a registered buffer backend and
// the operating points the search may price, in canonical (ladder)
// order. A pinned Options.OperatingPoint yields exactly one point; an
// empty backend yields the config's default technology adapter with its
// single nominal point — the historical behavior.
func ResolveBackend(cfg hw.Config, o Options) (mem.Backend, []mem.OperatingPoint, error) {
	return appendBackendPoints(nil, cfg, o, o.effectiveErrorBudget(), "")
}

// ResolveBackendForLayer is ResolveBackend under one layer's effective
// error budget: the uniform budget tightened by Options.LayerBudgets
// for that layer. With no per-layer budgets it is exactly
// ResolveBackend.
func ResolveBackendForLayer(cfg hw.Config, o Options, layer string) (mem.Backend, []mem.OperatingPoint, error) {
	return appendBackendPoints(nil, cfg, o, o.layerBudget(layer), layer)
}

// appendBackendPoints resolves the backend and appends the points it
// admits under budget into dst (typically a reused scratch slice), so
// the steady-state compile path resolves its backend without
// allocating. The error suffix naming the layer is built lazily — only
// error paths pay for it.
func appendBackendPoints(dst []mem.OperatingPoint, cfg hw.Config, o Options, budget float64, layer string) (mem.Backend, []mem.OperatingPoint, error) {
	name := o.Backend
	if name == "" {
		name = mem.DefaultName(cfg.BufferTech)
	}
	b, ok := mem.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("sched: unknown memory backend %q", name)
	}
	if b.Role() != mem.RoleBuffer {
		return nil, nil, fmt.Errorf("sched: backend %q is %s-role, not a buffer", name, b.Role())
	}
	if o.OperatingPoint != "" {
		p, ok := mem.PointByName(b, o.OperatingPoint)
		if !ok {
			return nil, nil, fmt.Errorf("sched: backend %q has no operating point %q", name, o.OperatingPoint)
		}
		if p.BitErrorRate > budget {
			return nil, nil, fmt.Errorf("sched: operating point %s@%s bit-error rate %g exceeds error budget %g%s",
				name, p.Name, p.BitErrorRate, budget, atLayer(layer))
		}
		if err := checkInterval(o, b, p); err != nil {
			return nil, nil, err
		}
		return b, append(dst, p), nil
	}
	start := len(dst)
	for _, p := range b.Points() {
		if p.BitErrorRate <= budget {
			if err := checkInterval(o, b, p); err != nil {
				return nil, nil, err
			}
			dst = append(dst, p)
		}
	}
	if len(dst) == start {
		return nil, nil, fmt.Errorf("sched: backend %q has no operating point within error budget %g%s", name, budget, atLayer(layer))
	}
	return b, dst, nil
}

// checkInterval rejects a positive refresh interval that an admitted
// operating point's retention scale truncates to zero: refresh pricing
// (refreshAt) needs a positive pulse period at every point it prices. A
// non-positive interval is Options.Validate's to report.
func checkInterval(o Options, b mem.Backend, p mem.OperatingPoint) error {
	if o.Controller == nil || !b.Refreshes() || o.RefreshInterval <= 0 {
		return nil
	}
	if scaled := scaleInterval(o.RefreshInterval, p.RetentionScale); scaled <= 0 {
		return fmt.Errorf("sched: refresh interval %v scales to %v at operating point %s@%s (retention scale %g)",
			o.RefreshInterval, scaled, b.Name(), p.Name, p.RetentionScale)
	}
	return nil
}

// atLayer is the " for layer %q" error suffix, empty for network-level
// resolution.
func atLayer(layer string) string {
	if layer == "" {
		return ""
	}
	return fmt.Sprintf(" for layer %q", layer)
}

// pointTables projects operating points onto their Eq. 14 pricing
// tables, index-aligned with the search's point axis.
func pointTables(pts []mem.OperatingPoint) []energy.Table {
	return appendPointTables(nil, pts)
}

// appendPointTables is pointTables into a reused scratch slice.
func appendPointTables(dst []energy.Table, pts []mem.OperatingPoint) []energy.Table {
	for _, p := range pts {
		dst = append(dst, p.Table())
	}
	return dst
}
