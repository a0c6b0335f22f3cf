package serve

// The shard-routing layer. With a Ring configured, route (server.go)
// asks who owns each key it misses locally. A key owned by this node (or
// already satisfiable from the local cache tiers) is served locally;
// anything else is forwarded to its owner byte-for-byte over
// RetryClient, which preserves the overload contract — the owner's 429
// + Retry-After and breaker 503s drive the client's backoff like any
// other caller's.
//
// Forwarding is capped at one hop by the ForwardedHeader marker: a
// node receiving a forwarded request always serves it locally, so two
// nodes with momentarily divergent ring views (a rolling restart with
// different -peers) bounce a key at most once instead of looping.
// And forwarding failure is never request failure: if the owner is
// down, slow, or shedding, the node falls back to computing locally —
// in a ring partition the fleet degrades to N independent ranads, each
// still serving byte-identical plans (the plan is a pure function of
// the key), just without the work partitioning.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"rana/internal/serve/shard"
)

// ForwardedHeader marks a request forwarded by a ring peer (its value
// is the sending node's shard ID). Receivers serve such requests
// locally, never re-forwarding.
const ForwardedHeader = "X-Rana-Forwarded"

// forwardedKey carries the one-hop marker through the handler context.
type forwardedKey struct{}

// forward replays the request on the owner node. It returns (resp, nil)
// on success, an *apiError to mirror when the owner answered with a
// deterministic client-side rejection, and any other error — transport
// failure or retry-exhausted overload — as the caller's cue to fall
// back to local computation.
func (s *Server) forward(ctx context.Context, owner shard.Node, path string, raw []byte, key string) (*response, error) {
	s.m.Forwards.Add(1)
	body, status, err := s.cfg.ForwardClient.PostJSON(ctx, owner.URL+path, raw)
	if err != nil {
		return nil, fmt.Errorf("posting to %s: %w", owner.URL, err)
	}
	switch {
	case status == http.StatusOK:
		// The owner's bytes are the canonical plan; remember them locally
		// so repeats (and restarts, via the store) skip the hop.
		s.remember(key, body)
		return &response{body: body, key: key, source: "forward"}, nil
	case status >= 400 && status < 500 && status != http.StatusTooManyRequests:
		// A deterministic rejection (400/404/422): this node would reject
		// identically, so mirror the owner's verdict instead of burning a
		// local computation on a doomed request.
		msg := fmt.Sprintf("owner %s rejected: status %d", owner.ID, status)
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, &apiError{status: status, msg: msg}
	default:
		return nil, fmt.Errorf("owner %s answered status %d", owner.ID, status)
	}
}

// forwarded reports whether api() marked the request as forwarded by a
// ring peer.
func forwarded(ctx context.Context) bool {
	f, _ := ctx.Value(forwardedKey{}).(bool)
	return f
}
