package core

// Serialization of the compilation phase's output: the layerwise
// configurations of Fig. 6 as a portable artifact. A real RANA toolchain
// compiles once per (accelerator, network) pair and ships the result to
// the device; this file is that artifact as JSON, with a loader that
// validates it against a hardware configuration before execution.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rana/internal/hw"
	"rana/internal/pattern"
)

// ConfigFile is the serialized compilation artifact.
type ConfigFile struct {
	// Version guards the format.
	Version int `json:"version"`
	// Network names the compiled model.
	Network string `json:"network"`
	// Accelerator names the target hardware configuration.
	Accelerator string `json:"accelerator"`
	// TolerableRateE is Stage 1's failure-rate decision.
	TolerableRate float64 `json:"tolerable_rate"`
	// TolerableRetentionNS is Stage 1's retention time in nanoseconds.
	TolerableRetentionNS int64 `json:"tolerable_retention_ns"`
	// DividerRatio programs the Fig. 14 clock divider.
	DividerRatio uint64 `json:"divider_ratio"`
	// Banks is the buffer bank count the flags index.
	Banks int `json:"banks"`
	// Layers are the per-layer execution configurations.
	Layers []LayerConfigEntry `json:"layers"`
}

// LayerConfigEntry is one layer's serialized configuration.
type LayerConfigEntry struct {
	Name         string `json:"name"`
	Pattern      string `json:"pattern"`
	Tm           int    `json:"tm"`
	Tn           int    `json:"tn"`
	Tr           int    `json:"tr"`
	Tc           int    `json:"tc"`
	RefreshFlags []bool `json:"refresh_flags"`
}

// currentConfigVersion is the format emitted by ExportConfig.
const currentConfigVersion = 1

// ExportConfig writes the compilation artifact as indented JSON.
func (o *Output) ExportConfig(w io.Writer) error {
	cf := ConfigFile{
		Version:              currentConfigVersion,
		Network:              o.Plan.Network.Name,
		Accelerator:          o.Config.Name,
		TolerableRate:        o.TolerableRate,
		TolerableRetentionNS: o.TolerableRetention.Nanoseconds(),
		DividerRatio:         o.DividerRatio,
		Banks:                o.Config.Banks(),
	}
	for _, lc := range o.Layerwise {
		cf.Layers = append(cf.Layers, LayerConfigEntry{
			Name:    lc.Layer.Name,
			Pattern: lc.Pattern.String(),
			Tm:      lc.Tiling.Tm, Tn: lc.Tiling.Tn,
			Tr: lc.Tiling.Tr, Tc: lc.Tiling.Tc,
			RefreshFlags: lc.RefreshFlags,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cf)
}

// ImportConfig parses and validates a compilation artifact against the
// target hardware configuration: versions must match, flag vectors must
// index the hardware's banks, and patterns/tilings must be well formed.
func ImportConfig(r io.Reader, cfg hw.Config) (*ConfigFile, error) {
	var cf ConfigFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cf); err != nil {
		return nil, fmt.Errorf("core: parsing config: %w", err)
	}
	if cf.Version != currentConfigVersion {
		return nil, fmt.Errorf("core: config version %d, want %d", cf.Version, currentConfigVersion)
	}
	if cf.Banks != cfg.Banks() {
		return nil, fmt.Errorf("core: config targets %d banks, hardware has %d", cf.Banks, cfg.Banks())
	}
	if cf.TolerableRetentionNS <= 0 {
		return nil, fmt.Errorf("core: non-positive retention %d ns", cf.TolerableRetentionNS)
	}
	if len(cf.Layers) == 0 {
		return nil, fmt.Errorf("core: config has no layers")
	}
	for i, l := range cf.Layers {
		if _, ok := pattern.ParseKind(l.Pattern); !ok {
			return nil, fmt.Errorf("core: layer %d (%s): unknown pattern %q", i, l.Name, l.Pattern)
		}
		t := pattern.Tiling{Tm: l.Tm, Tn: l.Tn, Tr: l.Tr, Tc: l.Tc}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("core: layer %d (%s): %w", i, l.Name, err)
		}
		if len(l.RefreshFlags) != cf.Banks {
			return nil, fmt.Errorf("core: layer %d (%s): %d flags for %d banks",
				i, l.Name, len(l.RefreshFlags), cf.Banks)
		}
	}
	return &cf, nil
}

// Retention returns the artifact's tolerable retention time.
func (cf *ConfigFile) Retention() time.Duration {
	return time.Duration(cf.TolerableRetentionNS)
}
