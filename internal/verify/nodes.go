package verify

// The cross-node conformance oracle. PR 6 turns ranad into a fleet: a
// consistent-hash ring shards the key space, a persistent plan store
// warm-restarts nodes, and forwarded requests are served by the key's
// owner. None of that is allowed to move a single plan byte — the
// headline fleet claim is that any replica, warm or cold, local or
// forwarding, answers a request byte-identically to a lone single-node
// ranad. CompareNodes is that check: it posts one request body to a
// reference ranad and to every fleet node, and reports any node whose
// status or body diverges from the reference's.

import (
	"context"
	"fmt"
	"time"

	"rana/internal/serve"
)

// defaultNodesClient keeps one conformance sweep from stalling for the
// full 30 s client budget on a dead node.
func defaultNodesClient() *serve.RetryClient {
	return &serve.RetryClient{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Millisecond,
		Budget:      10 * time.Second,
	}
}

// CompareNodes posts path+body to the reference ranad and then to every
// node URL, and reports any node whose HTTP status or response bytes
// differ from the reference's. Plans are a pure function of the
// canonical request key, so a healthy fleet — whatever node owns the
// key, wherever the request lands, warm or cold — must reproduce the
// reference bytes exactly; a 200 with different bytes and a non-200
// where the reference succeeded are both divergences, not transport
// errors. The report's notes list the nodes compared.
//
// client may be nil, selecting a short-budget RetryClient. An error is
// returned only when the reference itself is unreachable — without its
// answer there is nothing to conform to.
func CompareNodes(ctx context.Context, client *serve.RetryClient, reference string, nodes []string, path string, body []byte) (*Report, error) {
	if client == nil {
		client = defaultNodesClient()
	}
	r := &Report{Subject: fmt.Sprintf("%s %s", path, body), Notes: nodes}

	refBody, refStatus, err := client.PostJSON(ctx, reference+path, body)
	if err != nil {
		return nil, fmt.Errorf("verify: reference %s%s: %w", reference, path, err)
	}

	for _, node := range nodes {
		got, status, err := client.PostJSON(ctx, node+path, body)
		if err != nil {
			r.diverge("nodes/transport", "reference", node, fmt.Sprintf("status %d", refStatus), err)
			continue
		}
		if status != refStatus {
			r.diverge("nodes/status", "reference", node,
				fmt.Sprintf("%d: %.120s", refStatus, refBody),
				fmt.Sprintf("%d: %.120s", status, got))
			continue
		}
		if string(got) != string(refBody) {
			r.diverge("nodes/body-bytes", "reference", node,
				fmt.Sprintf("%.120s", refBody), fmt.Sprintf("%.120s", got))
		}
	}
	return r, nil
}
