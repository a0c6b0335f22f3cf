package verify

// The acceptance check for the fleet layer: a 3-shard ranad ring must
// answer every zoo schedule and compile request byte-identically to a
// lone single-node ranad, whichever node takes the request. The
// negative cases prove the oracle actually bites: wrong bytes, wrong
// status and a dead node must each surface as a divergence.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rana/internal/models"
	"rana/internal/serve"
	"rana/internal/serve/shard"
)

// startNode serves cfg on a fresh listener and returns its base URL.
func startNode(t *testing.T, cfg serve.Config) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(cfg)
	go s.Serve(ln)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return "http://" + ln.Addr().String()
}

// startRing brings up a 3-node sharded fleet and returns the node URLs.
func startRing(t *testing.T) []string {
	t.Helper()
	ids := []string{"n0", "n1", "n2"}
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
	return urls
}

// TestCompareNodesZooAcrossRing is the fleet acceptance criterion:
// byte-identical plans across 3 shards vs. a single-node ranad for
// every zoo network, on both the schedule and the compile endpoint.
func TestCompareNodesZooAcrossRing(t *testing.T) {
	reference := startNode(t, serve.Config{})
	nodes := startRing(t)
	ctx := context.Background()

	for _, m := range models.Benchmarks() {
		body := []byte(fmt.Sprintf(`{"model": %q}`, m.Name))
		for _, path := range []string{"/v1/schedule", "/v1/compile"} {
			r, err := CompareNodes(ctx, nil, reference, nodes, path, body)
			if err != nil {
				t.Fatalf("%s %s: %v", path, m.Name, err)
			}
			if !r.OK() {
				t.Errorf("%s", r)
			}
			if len(r.Notes) != len(nodes) {
				t.Errorf("%s %s: compared %d nodes, want %d", path, m.Name, len(r.Notes), len(nodes))
			}
		}
	}
}

// TestCompareNodesDetectsDivergence proves the oracle is live: nodes
// that answer with wrong bytes, a wrong status, or not at all must each
// produce exactly one divergence of the matching kind.
func TestCompareNodesDetectsDivergence(t *testing.T) {
	reference := startNode(t, serve.Config{})

	wrongBytes := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"plan": "not-the-reference-plan"}`)
	}))
	defer wrongBytes.Close()
	wrongStatus := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer wrongStatus.Close()
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + deadLn.Addr().String()
	deadLn.Close()

	client := &serve.RetryClient{MaxAttempts: 1, Budget: 2 * time.Second}
	r, err := CompareNodes(context.Background(), client, reference,
		[]string{wrongBytes.URL, wrongStatus.URL, dead},
		"/v1/schedule", []byte(`{"model": "AlexNet"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatal("oracle reported OK against three broken nodes")
	}
	byCheck := map[string]int{}
	for _, d := range r.Divergences {
		byCheck[d.Check]++
	}
	for _, check := range []string{"nodes/body-bytes", "nodes/status", "nodes/transport"} {
		if byCheck[check] != 1 {
			t.Errorf("%s divergences = %d, want 1 (all: %v)", check, byCheck[check], byCheck)
		}
	}
}

// TestCompareNodesReferenceUnreachable: without a reference answer there
// is nothing to conform to — the oracle must error, not report OK.
func TestCompareNodesReferenceUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadRef := "http://" + ln.Addr().String()
	ln.Close()
	client := &serve.RetryClient{MaxAttempts: 1, Budget: 2 * time.Second}
	if _, err := CompareNodes(context.Background(), client, deadRef, nil,
		"/v1/schedule", []byte(`{"model": "AlexNet"}`)); err == nil {
		t.Fatal("want an error for an unreachable reference")
	}
}
