package jsonenc

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// sample has a field of every kind the Reader reads.
type sample struct {
	S   string   `json:"s"`
	I   int      `json:"i"`
	I64 int64    `json:"i64"`
	U   uint64   `json:"u"`
	F   float64  `json:"f"`
	B   bool     `json:"b"`
	P   *inner   `json:"p"`
	L   []inner  `json:"l"`
	SS  []string `json:"ss"`
}

type inner struct {
	N    int    `json:"n"`
	Name string `json:"name"`
}

var innerFields = Fields[inner]{
	{Name: "n", Read: func(r *Reader, v *inner) { r.Int(&v.N) }},
	{Name: "name", Read: func(r *Reader, v *inner) { r.String(&v.Name) }},
}

var sampleFields = Fields[sample]{
	{Name: "s", Read: func(r *Reader, v *sample) { r.String(&v.S) }},
	{Name: "i", Read: func(r *Reader, v *sample) { r.Int(&v.I) }},
	{Name: "i64", Read: func(r *Reader, v *sample) { r.Int64(&v.I64) }},
	{Name: "u", Read: func(r *Reader, v *sample) { r.Uint64(&v.U) }},
	{Name: "f", Read: func(r *Reader, v *sample) { r.Float64(&v.F) }},
	{Name: "b", Read: func(r *Reader, v *sample) { r.Bool(&v.B) }},
	{Name: "p", Read: func(r *Reader, v *sample) { Pointer(r, &v.P, innerFields) }},
	{Name: "l", Read: func(r *Reader, v *sample) {
		Slice(r, &v.L, func(r *Reader, e *inner) { Object(r, e, innerFields) })
	}},
	{Name: "ss", Read: func(r *Reader, v *sample) { Slice(r, &v.SS, (*Reader).String) }},
}

// TestDecodeMatchesDecoder holds Decode to a json.Decoder with
// DisallowUnknownFields on bodies that exercise each token, each kind's
// type errors and encoding/json's quirks: Decode must accept exactly
// what the Decoder accepts, with an equal value, except that it rejects
// the '}' and ']' the Decoder leaves unread after the document.
func TestDecodeMatchesDecoder(t *testing.T) {
	for _, body := range []string{
		``, ` `, `null`, ` null `, `{}`, `[]`, `"s"`, `1`, `true`, `nul`, `{`, `{"s"`, `{"s":`,
		`{"s":"a",}`, `{,}`, `{"s" "a"}`, `{"s":"a" "i":1}`, `{"s":"a"}x`, `{"s":"a"}}`, `{"s":"a"} ]`,
		`{"s":"a"}{}`, " \t\r\n{ \"s\" :\n\"a\" } \r\n",
		`{"s":"plain ~ DEL` + "\x7f" + `"}`, `{"s":"é\n\"\\\/"}`, `{"s":"\ud800x"}`, `{"s":"😀"}`,
		"{\"s\":\"bad\xffutf8\"}", "{\"s\":\"ctl\x01\"}", `{"s":"\x"}`, `{"s":"\u12"}`, `{"s":"open`,
		`{"s":1}`, `{"s":null}`, `{"s":true}`, `{"s":{}}`, `{"s":[]}`,
		`{"i":0}`, `{"i":-0}`, `{"i":01}`, `{"i":-}`, `{"i":1.}`, `{"i":.5}`, `{"i":+1}`, `{"i":1.5}`,
		`{"i":1e2}`, `{"i":1E+2}`, `{"i":123456789012345678}`, `{"i":1234567890123456789}`,
		`{"i":9223372036854775807}`, `{"i":-9223372036854775808}`, `{"i":9223372036854775808}`,
		`{"i":"1"}`, `{"i":null}`, `{"i":tru}`, `{"i64":-42}`, `{"i64":4e1}`,
		`{"u":18446744073709551615}`, `{"u":18446744073709551616}`, `{"u":-1}`, `{"u":-0}`, `{"u":7}`,
		`{"f":1}`, `{"f":-0.0}`, `{"f":1e400}`, `{"f":-1e400}`, `{"f":1e-400}`, `{"f":2.5E-3}`, `{"f":"1"}`,
		`{"b":true}`, `{"b":false}`, `{"b":null}`, `{"b":tru}`, `{"b":1}`, `{"b":"true"}`,
		`{"p":null}`, `{"p":{}}`, `{"p":{"n":1},"p":{"name":"x"}}`, `{"p":{"n":1},"p":null}`, `{"p":[]}`,
		`{"l":null}`, `{"l":[]}`, `{"l":[null]}`, `{"l":[{"n":1},{"n":2}],"l":[{"name":"a"}],"l":[{},{}]}`,
		`{"l":[{"n":1}],"l":[],"l":[{},{}]}`, `{"l":[1]}`, `{"l":[{},]}`, `{"l":[{}`, `{"l":{}}`,
		`{"ss":["a","b"],"ss":["c"],"ss":["c",null]}`, `{"ss":[null,"x"]}`, `{"ss":"a"}`,
		`{"S":"up","I64":3,"Name":1}`, `{"s":"esc"}`, "{\"ſ\":\"long s\"}", "{\"p\":{\"K\":1}}",
		`{"x":1}`, `{"p":{"x":1}}`, `{"s":"a","s":"b"}`,
	} {
		var got, want sample
		err := Decode([]byte(body), &got, sampleFields)
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		werr := dec.Decode(&want)
		if werr == nil && dec.More() {
			werr = errMore
		}
		if werr == nil && err != nil {
			// The Decoder's More is false before '}' and ']'.
			rest := bytes.TrimLeft([]byte(body[dec.InputOffset():]), " \t\r\n")
			if len(rest) > 0 && (rest[0] == '}' || rest[0] == ']') && strings.Contains(err.Error(), "trailing data") {
				continue
			}
		}
		if (err == nil) != (werr == nil) {
			t.Errorf("%q: Decode error %v, encoding/json error %v", body, err, werr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Decode %+v, encoding/json %+v", body, got, want)
		}
	}
}

var errMore = errors.New("trailing data")

// TestDecodeStopsAtFirstError: the first error is the one reported,
// named by the path of keys it sits under.
func TestDecodeStopsAtFirstError(t *testing.T) {
	var v sample
	err := Decode([]byte(`{"s":"a","l":[{"n":1},{"n":"x"}],"i":"also wrong"}`), &v, sampleFields)
	if err == nil || err.Error() != `l: n: want int at offset 27, found '"'` {
		t.Errorf("error %v", err)
	}
	if v.S != "a" || len(v.L) != 2 || v.L[0].N != 1 {
		t.Errorf("read %+v before the error", v)
	}
}
