package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rana/internal/serve"
	"rana/internal/serve/shard"
)

// TestSweepAllZoo: the acceptance sweep — every benchmark network under
// OD and WD with zero divergences and zero invariant violations.
func TestSweepAllZoo(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "cases ok") {
		t.Errorf("missing success summary: %s", out.String())
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("unexpected failures: %s", out.String())
	}
}

// TestSweepSingleModelVerbose covers the per-network path with detail.
func TestSweepSingleModelVerbose(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-model", "AlexNet", "-v"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "AlexNet plan invariants") {
		t.Errorf("missing plan invariant line: %s", out.String())
	}
}

// TestSweepRandomAndFunctional covers the generator-driven paths.
func TestSweepRandomAndFunctional(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-model", "AlexNet", "-random", "40", "-functional", "2", "-seed", "3", "-v"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "randomized cases") || !strings.Contains(out.String(), "functional cases") {
		t.Errorf("missing sweep detail: %s", out.String())
	}
}

// TestAllPatterns includes the input-dominant pattern in the sweep.
func TestAllPatterns(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-model", "VGG", "-patterns", "ID,OD,WD"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
}

// Error paths: usage mistakes exit 2 with a diagnostic on stderr.
func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad flag", []string{"-nope"}, "flag provided but not defined"},
		{"unknown model", []string{"-model", "LeNet"}, "unknown model"},
		{"unknown pattern", []string{"-patterns", "XX"}, "unknown pattern"},
		{"empty patterns", []string{"-patterns", ","}, "no patterns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q missing %q", errb.String(), tc.want)
			}
		})
	}
}

// TestSweepMatrix covers the differential-matrix path: one zoo network
// plus random networks.
func TestSweepMatrix(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-model", "AlexNet", "-matrix", "8", "-seed", "3", "-v"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"ok   AlexNet matrix: ok", "ok   random-7 matrix: ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q: %s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("unexpected failures: %s", out.String())
	}
}

// TestNodesSweep runs the cross-node conformance sweep against a live
// in-process fleet: a 2-shard ring plus a single-node reference, over
// one zoo network's schedule, compile and evaluate requests.
func TestNodesSweep(t *testing.T) {
	startNode := func(cfg serve.Config) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := serve.New(cfg)
		go s.Serve(ln)
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		return "http://" + ln.Addr().String()
	}
	reference := startNode(serve.Config{})

	ids := []string{"a", "b"}
	lns := make([]net.Listener, len(ids))
	ringNodes := make([]shard.Node, len(ids))
	for i := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		ringNodes[i] = shard.Node{ID: ids[i], URL: "http://" + ln.Addr().String()}
	}
	urls := make([]string, len(ids))
	for i := range ids {
		ring, err := shard.New(ringNodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := serve.New(serve.Config{Ring: ring, ShardID: ids[i]})
		go s.Serve(lns[i])
		t.Cleanup(func() { s.Shutdown(context.Background()) })
		urls[i] = ringNodes[i].URL
	}

	var out, errb strings.Builder
	code := run([]string{"-model", "AlexNet", "-nodes", strings.Join(urls, ","), "-reference", reference, "-v"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "node cases ok") {
		t.Errorf("missing success summary: %s", out.String())
	}
	for _, path := range []string{"/v1/compile", "/v1/evaluate"} {
		if !strings.Contains(out.String(), path) {
			t.Errorf("verbose output misses the %s sweep: %s", path, out.String())
		}
	}
}

// TestNodesFlagValidation: -nodes and -reference travel together, and an
// all-empty node list is a usage error.
func TestNodesFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"nodes without reference", []string{"-nodes", "http://x"}, "must be given together"},
		{"reference without nodes", []string{"-reference", "http://x"}, "must be given together"},
		{"empty node list", []string{"-nodes", " , ", "-reference", "http://x"}, "lists no URLs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q missing %q", errb.String(), tc.want)
			}
		})
	}
}

// TestNodesSweepDivergence: a fleet node that answers with foreign bytes
// must fail the sweep with exit 1.
func TestNodesSweepDivergence(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{})
	go s.Serve(ln)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	reference := "http://" + ln.Addr().String()

	rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"plan": "rogue"}`)
	}))
	defer rogue.Close()

	var out, errb strings.Builder
	code := run([]string{"-model", "AlexNet", "-nodes", rogue.URL, "-reference", reference}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "nodes/body-bytes") {
		t.Errorf("missing body-bytes divergence: %s", out.String())
	}
}
