package serve

// The encoding/json reference for request decoding. decodeRequest reads
// bodies by hand through the field tables; decodeJSONRef is the decoder
// it replaced, which it must equal on every body but one kind
// (FuzzDecodeScheduleRequest), and TestDecodeRoundTrip ties the tables
// to the wire types' json tags.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rana/internal/jsonenc"
	"rana/internal/models"
)

// decodeJSONRef is the strict decoder ranad used before the reader:
// encoding/json with unknown fields disallowed, then a check for a
// second document. end is the offset just past the first document.
// Decoder.More reports false before a '}' or ']', so a document
// followed by one passed that check; decodeRequest rejects it as
// trailing data.
func decodeJSONRef(body []byte, dst any) (end int64, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return dec.InputOffset(), badRequest("invalid request body: %v", err)
	}
	end = dec.InputOffset()
	if dec.More() {
		return end, badRequest("invalid request body: trailing data")
	}
	return end, nil
}

// spelledRequest is a /v1/schedule body naming no model: net's layers
// spelled out, as a client outside the zoo sends them.
func spelledRequest(net models.Network) []byte {
	body, err := json.Marshal(ScheduleRequest{Network: spelledNetwork(net)})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return body
}

// spelledNetwork is net on the wire, layer by layer.
func spelledNetwork(net models.Network) *NetworkSpec {
	spec := &NetworkSpec{Name: net.Name}
	for _, l := range net.Layers {
		spec.Layers = append(spec.Layers, LayerSpec{Name: l.Name, Stage: l.Stage,
			N: l.N, H: l.H, L: l.L, M: l.M, K: l.K, S: l.S, P: l.P, Groups: l.Groups})
	}
	return spec
}

// populatedRequests returns a value of every request type with every
// field, however deep, set, and no two fields of a type holding the
// same value, so a table entry that reads into the wrong field cannot
// round-trip.
func populatedRequests() (ScheduleRequest, CompileRequest, EvaluateRequest, BatchRequest) {
	net := func(name string) *NetworkSpec {
		return &NetworkSpec{Name: name, Layers: []LayerSpec{
			{Name: name + "-l0", Stage: name + "-s0", N: 1, H: 2, L: 3, M: 4, K: 5, S: 6, P: 7, Groups: 8},
			{Name: name + "-l1", Stage: name + "-s1", N: 9, H: 10, L: 11, M: 12, K: 13, S: 14, P: 15, Groups: 16},
		}}
	}
	sr := ScheduleRequest{
		Model: "model", Network: net("sched"), Accelerator: "accelerator",
		Config: &ConfigSpec{
			Name: "config", ArrayM: 21, ArrayN: 22, Mapping: "output-input", FrequencyHz: 2.5e8,
			LocalInput: 23, LocalOutput: 24, LocalWeight: 25, BufferWords: 1<<64 - 1,
			BufferTech: "edram", BankWords: 26,
		},
		Options: &OptionsSpec{
			Patterns: []string{"OD", "WD"}, RefreshIntervalNS: 45_000, Controller: "conventional",
			NaturalTiling: true, RetentionGuard: 0.25, FixedTiling: &TilingSpec{Tm: 31, Tn: 32, Tr: 33, Tc: 34},
			Search: "beam", BeamWidth: 35, Parallelism: 36, Backend: "approx-dram",
			OperatingPoint: "v0.9", ErrorBudget: 1e-6, Traversal: "rtc", Mapping: "all",
		},
		DeadlineMS: 37,
	}
	cr := CompileRequest{Model: "model", Network: net("compile"), Search: "pruned", Parallelism: 41}
	er := EvaluateRequest{Design: "RANA*(E-5)", Model: "model", Network: net("evaluate"),
		Backend: "backend", OperatingPoint: "point"}
	br := BatchRequest{Entries: []BatchEntrySpec{
		{Op: "schedule", Compile: &cr, Schedule: &sr},
		{Op: "compile", Compile: &CompileRequest{Model: "VGG", Network: net("second"), Search: "beam", Parallelism: 2},
			Schedule: &ScheduleRequest{Model: "AlexNet", Network: net("third"), Accelerator: "test",
				Config: sr.Config, Options: sr.Options, DeadlineMS: 50}},
	}}
	return sr, cr, er, br
}

// TestDecodeRoundTrip ties each field table to its wire type: its names
// are the type's json tag names in field order, and a value with every
// field set, marshalled by encoding/json, reads back equal. A field
// added to a wire type fails here until its table and the populated
// value both carry it.
func TestDecodeRoundTrip(t *testing.T) {
	sr, cr, er, br := populatedRequests()
	roundTrip(t, sr, scheduleRequestFields)
	roundTrip(t, cr, compileRequestFields)
	roundTrip(t, er, evaluateRequestFields)
	roundTrip(t, br, batchRequestFields)
	for _, table := range []struct {
		typ   reflect.Type
		names []string
	}{
		{reflect.TypeOf(LayerSpec{}), tableNames(layerSpecFields)},
		{reflect.TypeOf(NetworkSpec{}), tableNames(networkSpecFields)},
		{reflect.TypeOf(ConfigSpec{}), tableNames(configSpecFields)},
		{reflect.TypeOf(TilingSpec{}), tableNames(tilingSpecFields)},
		{reflect.TypeOf(OptionsSpec{}), tableNames(optionsSpecFields)},
		{reflect.TypeOf(ScheduleRequest{}), tableNames(scheduleRequestFields)},
		{reflect.TypeOf(CompileRequest{}), tableNames(compileRequestFields)},
		{reflect.TypeOf(EvaluateRequest{}), tableNames(evaluateRequestFields)},
		{reflect.TypeOf(BatchEntrySpec{}), tableNames(batchEntrySpecFields)},
		{reflect.TypeOf(BatchRequest{}), tableNames(batchRequestFields)},
	} {
		var tags []string
		for i := 0; i < table.typ.NumField(); i++ {
			tag, _, _ := strings.Cut(table.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, tag)
		}
		if !reflect.DeepEqual(table.names, tags) {
			t.Errorf("%s: field table %q, json tags %q", table.typ.Name(), table.names, tags)
		}
	}
}

func roundTrip[T any](t *testing.T, want T, fields jsonenc.Fields[T]) {
	t.Helper()
	for _, path := range zeroFields(reflect.ValueOf(want), reflect.TypeOf(want).Name()) {
		t.Errorf("populated value leaves %s zero", path)
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got T
	if err := decodeRequest(body, &got, fields); err != nil {
		t.Fatalf("%T: %v\n%s", want, err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%T round trip:\n got %s\nwant %s", want, mustMarshal(t, got), body)
	}
}

func tableNames[T any](fields jsonenc.Fields[T]) []string {
	var names []string
	for _, f := range fields {
		names = append(names, f.Name)
	}
	return names
}

// zeroFields lists the paths of the zero-valued fields in v, following
// pointers, slice elements and nested structs.
func zeroFields(v reflect.Value, path string) []string {
	if v.IsZero() {
		return []string{path}
	}
	var zero []string
	switch v.Kind() {
	case reflect.Pointer:
		zero = zeroFields(v.Elem(), path)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			zero = append(zero, zeroFields(v.Index(i), path+"[]")...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			zero = append(zero, zeroFields(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
	}
	return zero
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeQuirks pins the values encoding/json gives the quirkiest
// seeds of FuzzDecodeScheduleRequest, so the fuzz's seeds are known to
// reach them: a repeated key decodes into the previous value's storage,
// null clears a slice but not a string, and keys fold.
func TestDecodeQuirks(t *testing.T) {
	cases := []struct {
		body string
		want ScheduleRequest
	}{
		{`{"options": {"patterns": ["OD", "WD"], "patterns": ["ID"], "patterns": ["ID", null]}}`,
			ScheduleRequest{Options: &OptionsSpec{Patterns: []string{"ID", "WD"}}}},
		{`{"options": {"patterns": ["OD", "WD"], "patterns": [], "patterns": ["ID", null]}}`,
			ScheduleRequest{Options: &OptionsSpec{Patterns: []string{"ID", ""}}}},
		{`{"options": {"patterns": ["OD"], "patterns": null}, "model": "VGG", "model": null}`,
			ScheduleRequest{Model: "VGG", Options: &OptionsSpec{}}},
		{`{"networ\u212a": {"name": "x", "layers": [{"\u212a": 3, "\u017f": 1}]}}`,
			ScheduleRequest{Network: &NetworkSpec{Name: "x", Layers: []LayerSpec{{K: 3, S: 1}}}}},
		{`{"model": "\ud800", "config": {"buffer_words": 18446744073709551615}}`,
			ScheduleRequest{Model: "\uFFFD", Config: &ConfigSpec{BufferWords: 1<<64 - 1}}},
		{`null`, ScheduleRequest{}},
	}
	for _, c := range cases {
		var got, ref ScheduleRequest
		if err := decodeRequest([]byte(c.body), &got, scheduleRequestFields); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if _, err := decodeJSONRef([]byte(c.body), &ref); err != nil {
			t.Fatalf("%s: reference: %v", c.body, err)
		}
		if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(ref, c.want) {
			t.Errorf("%s:\n reader        %s\n encoding/json %s\n want          %s",
				c.body, mustMarshal(t, got), mustMarshal(t, ref), mustMarshal(t, c.want))
		}
	}
}
