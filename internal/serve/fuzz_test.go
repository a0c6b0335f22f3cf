package serve

// Fuzzing and hostile-input tests for the request decoding path: no
// body, however malformed, oversized or truncated, may panic the
// reader, hang a flight, or produce anything but a 4xx, and the reader
// decodes every body as encoding/json does.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rana/internal/jsonenc"
	"rana/internal/models"
)

// FuzzDecodeScheduleRequest holds the request reader to encoding/json
// on arbitrary bytes, decoding each into all four request types with
// decodeRequest and with decodeJSONRef. Both must accept or both reject,
// and accepted values must be equal. The one exemption is a document
// followed by '}' or ']', which only the reference accepts; the reader
// must then reject it as trailing data and read the document alone to
// the reference's value. Every reader error is an *apiError in the 4xx
// range — never a panic, never a 5xx.
func FuzzDecodeScheduleRequest(f *testing.F) {
	f.Add([]byte(`{"model": "AlexNet"}`))
	f.Add([]byte(`{"network": ` + tinyNetJSON + `}`))
	f.Add([]byte(`{"model": "AlexNet", "deadline_ms": 50}`))
	f.Add([]byte(`{"model"`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"model": 42}`))
	f.Add([]byte(`{"model": "A"}{"model": "B"}`))
	f.Add([]byte(`{"options": {"patterns": ["OD", "XX"]}}`))
	f.Add([]byte(strings.Repeat(`{"a":`, 1000)))
	// Trailing data: the reference passes whitespace and, wrongly, the
	// '}' and ']' of the first two and the last.
	f.Add([]byte(`{"model":"AlexNet"}}`))
	f.Add([]byte(`{"model":"AlexNet"} ]]]}}`))
	f.Add([]byte(`{"model":"AlexNet"}x`))
	f.Add([]byte("{\"model\":\"AlexNet\"} \t\r\n"))
	f.Add([]byte(`null}`))
	// Keys match case-insensitively after unescaping: "K" (U+212A) is k
	// and "ſ" (U+017F) is s.
	f.Add([]byte(`{"MODEL": "AlexNet", "Deadline_MS": 5}`))
	f.Add([]byte(`{"networK": {"name": "x", "layers": [{"K": 3, "ſ": 1}]}}`))
	f.Add([]byte("{\"networ\u212a\": null, \"\u017fearch\": \"beam\", \"de\\u0073ign\": \"d\"}"))
	f.Add([]byte(`{"options": {"ſearch": "beam", "patterns": ["OD"]}}`))
	// null leaves a scalar or struct unchanged and clears a pointer or a
	// slice.
	f.Add([]byte(`{"model": "AlexNet", "model": null, "deadline_ms": 7, "deadline_ms": null}`))
	f.Add([]byte(`{"network": {"name": "x"}, "network": null, "options": {"patterns": ["ID"], "patterns": null, "natural_tiling": null}}`))
	f.Add([]byte(`{"options": {"fixed_tiling": null, "retention_guard": null}, "config": null}`))
	f.Add([]byte(`{"entries": [null, {"op": null, "schedule": null}]}`))
	f.Add([]byte(`{"network": {"layers": [null, {}]}}`))
	// A repeated key decodes into what the previous one left.
	f.Add([]byte(`{"options": {"patterns": ["OD", "WD"], "patterns": ["ID"], "patterns": ["ID", null]}}`))
	f.Add([]byte(`{"options": {"patterns": ["OD", "WD"], "patterns": [], "patterns": ["ID", null]}}`))
	f.Add([]byte(`{"network": {"name": "a", "layers": [{"name": "x", "n": 1}, {"name": "y", "n": 2}], "layers": [{"name": "z"}], "layers": [{}, {}]}}`))
	f.Add([]byte(`{"network": {"name": "a"}, "network": {"layers": []}, "options": {"fixed_tiling": {"tm": 1}}, "options": {"fixed_tiling": {"tn": 2}}}`))
	f.Add([]byte(`{"entries": [{"compile": {"model": "VGG"}}, {"schedule": {"model": "AlexNet"}}], "entries": [{"op": "schedule"}]}`))
	// Integers reject fractions, exponents and overflow; buffer_words
	// takes 2^64-1 and rejects -1; floats reject 1e400.
	f.Add([]byte(`{"deadline_ms": 1.0}`))
	f.Add([]byte(`{"deadline_ms": 1e3}`))
	f.Add([]byte(`{"deadline_ms": 9223372036854775807}`))
	f.Add([]byte(`{"deadline_ms": 9223372036854775808}`))
	f.Add([]byte(`{"deadline_ms": -9223372036854775808, "parallelism": -0}`))
	f.Add([]byte(`{"config": {"buffer_words": 18446744073709551615}}`))
	f.Add([]byte(`{"config": {"buffer_words": 18446744073709551616}}`))
	f.Add([]byte(`{"config": {"buffer_words": -1}}`))
	f.Add([]byte(`{"config": {"buffer_words": -0}}`))
	f.Add([]byte(`{"config": {"frequency_hz": 1e400}}`))
	f.Add([]byte(`{"config": {"frequency_hz": 1e-400, "bank_words": 01}}`))
	f.Add([]byte(`{"options": {"retention_guard": -0.5E+1, "error_budget": 1.5e-300}}`))
	f.Add([]byte(`{"options": {"natural_tiling": true, "natural_tiling": false, "beam_width": tru}}`))
	// Lone surrogates and invalid UTF-8 become U+FFFD; control bytes are
	// rejected.
	f.Add([]byte(`{"model": "\ud800"}`))
	f.Add([]byte(`{"model": "\ud83d\ude00 \u00e9 \/ \" \\"}`))
	f.Add([]byte("{\"model\": \"a\xffb\xc3\"}"))
	f.Add([]byte("{\"model\": \"tab\tin\"}"))
	f.Add([]byte(`{"model": "é日本 <&>"}`))
	f.Add([]byte(`{"design": "RANA*(E-5)", "model": "AlexNet", "backend": "approx-dram", "operating_point": "v0.9"}`))
	f.Add([]byte(`{"entries": [{"op": "schedule", "schedule": {"model": "AlexNet", "options": {"search": "beam"}}}, {"compile": {"model": "VGG", "parallelism": 2}}]}`))
	for _, net := range models.Benchmarks() {
		f.Add(spelledRequest(net))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		differential(t, body, scheduleRequestFields)
		differential(t, body, compileRequestFields)
		differential(t, body, evaluateRequestFields)
		differential(t, body, batchRequestFields)
	})
}

// differential decodes body into a T with the reader and with the
// reference, and fails unless they agree.
func differential[T any](t *testing.T, body []byte, fields jsonenc.Fields[T]) {
	t.Helper()
	var got, want T
	err := decodeRequest(body, &got, fields)
	if err != nil {
		var ae *apiError
		if !errors.As(err, &ae) {
			t.Fatalf("%T: decode error is not an apiError: %v", got, err)
		}
		if ae.status < 400 || ae.status > 499 {
			t.Fatalf("%T: decode error status %d outside 4xx: %v", got, ae.status, err)
		}
	}
	end, refErr := decodeJSONRef(body, &want)
	if err != nil && refErr == nil {
		if rest := bytes.TrimLeft(body[end:], " \t\r\n"); len(rest) > 0 && (rest[0] == '}' || rest[0] == ']') {
			if !strings.Contains(err.Error(), "trailing data") {
				t.Fatalf("%T: %q followed by %q: %v, want trailing data", got, body[:end], rest, err)
			}
			var doc T
			if err := decodeRequest(body[:end], &doc, fields); err != nil || !reflect.DeepEqual(doc, want) {
				t.Fatalf("%T: document %q read as %+v (%v), encoding/json %+v", got, body[:end], doc, err, want)
			}
			return
		}
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%T: %q: reader error %v, encoding/json error %v", got, body, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: %q:\nreader        %+v\nencoding/json %+v", got, body, got, want)
	}
}

func TestHostileBodiesAlwaysClientError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	oversized := `{"network": {"name": "big", "layers": [` +
		strings.Repeat(`{"name": "l", "n": 1, "h": 8, "l": 8, "m": 1, "k": 1, "s": 1},`, 40000) +
		`{"name": "l", "n": 1, "h": 8, "l": 8, "m": 1, "k": 1, "s": 1}]}}`
	if len(oversized) <= maxRequestBytes {
		t.Fatalf("oversized fixture is only %d bytes", len(oversized))
	}
	manyLayers := `{"network": {"name": "wide", "layers": [` +
		strings.Repeat(`{"name": "l", "n": 1, "h": 8, "l": 8, "m": 1, "k": 1, "s": 1},`, maxCustomLayers) +
		`{"name": "l", "n": 1, "h": 8, "l": 8, "m": 1, "k": 1, "s": 1}]}}`

	// status, when set, is the exact 4xx the case must get. A chunked
	// body hides its length, so the server reads it without one.
	cases := []struct {
		name, body string
		status     int
		chunked    bool
	}{
		{"empty body", ``, 0, false},
		{"not json", `this is not json`, 0, false},
		{"truncated", `{"network": {"name": "x", "lay`, 0, false},
		{"null", `null` /* decodes to a zero request; rejected by resolve */, 0, false},
		{"array", `[1,2,3]`, 0, false},
		{"wrong type", `{"model": {"nested": true}}`, 0, false},
		{"deep nesting", strings.Repeat(`{"network":`, 5000) + `1` + strings.Repeat(`}`, 5000), 0, false},
		// Well-formed but over the limit: refused as too large, not as
		// the truncated JSON the decoder would see.
		{"oversized", oversized, http.StatusRequestEntityTooLarge, false},
		{"oversized, chunked", oversized, http.StatusRequestEntityTooLarge, true},
		{"too many layers", manyLayers, 0, false},
		{"negative deadline", `{"model": "AlexNet", "deadline_ms": -5}`, 0, false},
		{"huge ints", `{"network": {"name": "x", "layers": [{"name": "l", "n": 999999999999999999999999, "h": 8, "l": 8, "m": 1, "k": 1, "s": 1}]}}`, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan *http.Response, 1)
			go func() {
				var body io.Reader = strings.NewReader(tc.body)
				if tc.chunked {
					body = io.MultiReader(body)
				}
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", body)
				if err != nil {
					t.Error(err)
					done <- nil
					return
				}
				done <- resp
			}()
			select {
			case resp := <-done:
				if resp == nil {
					return
				}
				body := readBody(t, resp)
				if resp.StatusCode < 400 || resp.StatusCode > 499 {
					t.Fatalf("status %d outside 4xx: %s", resp.StatusCode, body)
				}
				if tc.status != 0 && resp.StatusCode != tc.status {
					t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
				}
				if tc.status == http.StatusRequestEntityTooLarge && !strings.Contains(string(body), strconv.Itoa(maxRequestBytes)) {
					t.Errorf("413 body does not name the %d-byte limit: %s", maxRequestBytes, body)
				}
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Errorf("error body not structured: %s", body)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("hostile body hung the request")
			}
			// The server is still healthy after every hostile body.
			hresp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			readBody(t, hresp)
			if hresp.StatusCode != 200 {
				t.Fatalf("healthz = %d after hostile body", hresp.StatusCode)
			}
		})
	}
}
