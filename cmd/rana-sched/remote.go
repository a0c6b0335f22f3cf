package main

// The -server mode: compile on a ranad instance instead of in process.
// Requests go through serve.RetryClient, so shed (429) and breaker/drain
// (503) responses are retried with Retry-After-aware jittered backoff
// within a fixed time budget.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"time"

	"rana/internal/serve"
)

// runRemote posts the compilation to baseURL and prints the result in
// the mode's format: -export prints the portable artifact verbatim,
// -json prints the plan wire encoding, and the default prints the
// compile summary numbers (the per-layer table needs the in-process
// output and is only available locally).
func runRemote(baseURL, model, strategy, backend, point, traversal, mapping string, parallelism int, export, asJSON bool, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rc := &serve.RetryClient{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "rana-sched: "+format+"\n", args...)
		},
	}
	if asJSON {
		// /v1/schedule carries the same plan wire encoding as local -json.
		// A -search strategy pins the server's exploration (and opts the
		// request out of the beam rung of the degradation ladder);
		// -parallelism rides along as a throughput hint that never changes
		// the plan bytes.
		req := serve.ScheduleRequest{Model: model}
		if spec := (serve.OptionsSpec{Search: strategy, Parallelism: parallelism, Backend: backend,
			OperatingPoint: point, Traversal: traversal, Mapping: mapping}); !reflect.ValueOf(spec).IsZero() {
			req.Options = &spec
		}
		body, ok := post(ctx, rc, baseURL+"/v1/schedule", req, stderr)
		if !ok {
			return 1
		}
		// The plan's bytes as the server wrote them: decoding them into
		// sched.PlanJSON and encoding them again could respell them.
		var resp struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			fmt.Fprintln(stderr, "rana-sched:", err)
			return 1
		}
		return printIndented(stdout, stderr, resp.Plan)
	}

	body, ok := post(ctx, rc, baseURL+"/v1/compile", serve.CompileRequest{Model: model, Search: strategy, Parallelism: parallelism}, stderr)
	if !ok {
		return 1
	}
	var resp serve.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	if export {
		return printIndented(stdout, stderr, resp.Artifact)
	}
	fmt.Fprintf(stdout, "%s via %s: %d layers scheduled\n", model, baseURL, len(resp.Plan.Layers))
	fmt.Fprintf(stdout, "tolerable refresh rate: %.4f, retention: %v, divider ratio: %d\n",
		resp.TolerableRate, time.Duration(resp.TolerableRetentionNS), resp.DividerRatio)
	fmt.Fprintf(stdout, "energy: total %.3f mJ\n", resp.EnergyPJ/1e9)
	return 0
}

// post sends req to url as JSON and returns a 200 response's body. On
// any failure it reports to stderr and returns false.
func post(ctx context.Context, rc *serve.RetryClient, url string, req any, stderr io.Writer) ([]byte, bool) {
	reqBody, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return nil, false
	}
	body, status, err := rc.PostJSON(ctx, url, reqBody)
	if err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return nil, false
	}
	if status != 200 {
		remoteError(stderr, status, body)
		return nil, false
	}
	return body, true
}

// remoteError reports a non-200 final status, surfacing the server's
// structured error message when the body carries one.
func remoteError(stderr io.Writer, status int, body []byte) {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		fmt.Fprintf(stderr, "rana-sched: server returned %d: %s\n", status, e.Error)
	} else {
		fmt.Fprintf(stderr, "rana-sched: server returned %d\n", status)
	}
}

func printIndented(stdout, stderr io.Writer, raw json.RawMessage) int {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(stderr, "rana-sched:", err)
		return 1
	}
	return 0
}
