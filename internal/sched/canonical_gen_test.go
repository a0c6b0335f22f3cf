// Randomized respelling tests of the canonical frame. They live in an
// external test package because they draw networks and configurations
// from internal/verify/gen, which itself imports sched.
package sched_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"rana/internal/hw"
	"rana/internal/mem"
	"rana/internal/models"
	"rana/internal/sched"
	"rana/internal/sched/search"
	"rana/internal/verify/gen"
)

// TestRespellingsShareCanonicalFormAndPlan: two spellings of one
// option give equal AppendCanonical bytes and byte-identical plans, on
// generated networks, configurations and options. Equal canonical forms
// must mean equal plans, or ranad's cache and the shared memo would
// answer one request with another's plan.
func TestRespellingsShareCanonicalFormAndPlan(t *testing.T) {
	respellings := []struct {
		name string
		a, b func(*sched.Options, hw.Config)
	}{
		{"default backend by name",
			func(*sched.Options, hw.Config) {},
			func(o *sched.Options, c hw.Config) { o.Backend = mem.DefaultName(c.BufferTech) }},
		{"default axes spelled",
			func(*sched.Options, hw.Config) {},
			func(o *sched.Options, _ hw.Config) { o.Traversal, o.Mapping = "linear", "row-major" }},
		{"rtc ladder",
			func(o *sched.Options, _ hw.Config) { o.Traversal = "rtc" },
			func(o *sched.Options, _ hw.Config) { o.Traversal = "blocked2,blocked4,blocked8" }},
		{"default strategy named",
			func(*sched.Options, hw.Config) {},
			func(o *sched.Options, _ hw.Config) { o.Search = search.Pruned }},
		{"default beam width",
			func(o *sched.Options, _ hw.Config) { o.Search = search.Beam },
			func(o *sched.Options, _ hw.Config) { o.Search, o.BeamWidth = search.Beam, search.DefaultBeamWidth }},
		{"default guard",
			func(*sched.Options, hw.Config) {},
			func(o *sched.Options, _ hw.Config) { o.RetentionGuard = sched.RetentionGuard }},
	}
	g := gen.New(19)
	for i := 0; i < 6; i++ {
		cfg, base := g.Config(), g.Options()
		net := models.Network{Name: fmt.Sprintf("gen-%d", i)}
		for j := 0; j < 1+i%3; j++ {
			l := g.Layer()
			l.Name = fmt.Sprintf("l%d", j)
			net.Layers = append(net.Layers, l)
		}
		for _, rs := range respellings {
			a, b := base, base
			rs.a(&a, cfg)
			rs.b(&b, cfg)
			ca, cb := sched.AppendCanonical(nil, &cfg, &a), sched.AppendCanonical(nil, &cfg, &b)
			if string(ca) != string(cb) {
				t.Errorf("%s, %s: canonical forms differ:\n%s\n%s", net.Name, rs.name, ca, cb)
			}
			if pa, pb := planBytes(t, net, cfg, a), planBytes(t, net, cfg, b); pa != pb {
				t.Errorf("%s, %s: plans differ:\n%.200s\n%.200s", net.Name, rs.name, pa, pb)
			}
		}
	}
}

// planBytes is the wire encoding of net's plan, or its error text.
func planBytes(t *testing.T, net models.Network, cfg hw.Config, opts sched.Options) string {
	t.Helper()
	p, _, err := sched.ExploreNetworkContext(context.Background(), net, cfg, opts)
	if err != nil {
		return err.Error()
	}
	raw, err := json.Marshal(sched.Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
