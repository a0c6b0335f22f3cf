package serve

// Fuzzing and hostile-input tests for the request decoding path: no
// body, however malformed, oversized or truncated, may panic the
// decoder, hang a flight, or produce anything but a 4xx.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeScheduleRequest asserts the decode contract on arbitrary
// bytes: decodeJSON either succeeds or returns an *apiError in the 4xx
// range — never a panic, never a 5xx-class error.
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
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest("POST", "/v1/schedule", strings.NewReader(string(body)))
		var req ScheduleRequest
		err := decodeJSON(r, &req)
		if err == nil {
			return
		}
		var ae *apiError
		if !errors.As(err, &ae) {
			t.Fatalf("decode error is not an apiError: %v", err)
		}
		if ae.status < 400 || ae.status > 499 {
			t.Fatalf("decode error status %d outside 4xx: %v", ae.status, err)
		}
	})
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

	// status, when set, is the exact 4xx the case must get.
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty body", ``, 0},
		{"not json", `this is not json`, 0},
		{"truncated", `{"network": {"name": "x", "lay`, 0},
		{"null", `null` /* decodes to a zero request; rejected by resolve */, 0},
		{"array", `[1,2,3]`, 0},
		{"wrong type", `{"model": {"nested": true}}`, 0},
		{"deep nesting", strings.Repeat(`{"network":`, 5000) + `1` + strings.Repeat(`}`, 5000), 0},
		// Well-formed but over the limit: refused as too large, not as
		// the truncated JSON the decoder would see.
		{"oversized", oversized, http.StatusRequestEntityTooLarge},
		{"too many layers", manyLayers, 0},
		{"negative deadline", `{"model": "AlexNet", "deadline_ms": -5}`, 0},
		{"huge ints", `{"network": {"name": "x", "layers": [{"name": "l", "n": 999999999999999999999999, "h": 8, "l": 8, "m": 1, "k": 1, "s": 1}]}}`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan *http.Response, 1)
			go func() {
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(tc.body))
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
