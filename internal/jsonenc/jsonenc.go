// Package jsonenc writes and reads JSON without reflection, held to
// encoding/json: what it writes byte for byte, what it reads value for
// value.
//
// The writers append the bytes encoding/json's Marshal writes for a
// string and a float64, and for omitempty fields of those and of ints.
// They serve the hand-written encoders whose output must stay
// byte-identical to json.Marshal of the tagged structs their tests keep
// as the reference: the canonical (config, options) frame
// sched.AppendCanonical writes for ranad's cache key and the layer
// memo's key, the plan encoding and ranad's schedule response body.
//
// The Reader decodes ranad's request bodies through per-type field
// tables (Fields), accepting exactly what encoding/json's Decoder with
// DisallowUnknownFields accepts and leaving the same values, except
// that Decode rejects any bytes after the document. Like the writers it
// hands any string that is not plain printable ASCII to encoding/json.
// ranad's differential fuzz holds it to its encoding/json reference.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// String appends s as json.Marshal spells a string: quoted, with the
// HTML-safe escaping Marshal applies by default.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	return EndString(append(dst, s...), len(dst))
}

// EndString closes a JSON string whose opening quote is dst[from-1] and
// whose raw contents the caller appended in place as dst[from:]. Plain
// printable ASCII other than '"', '\\', '<', '>' and '&' is its own JSON
// spelling and only gains the closing quote; any other contents are
// re-encoded by encoding/json, so control bytes, non-ASCII, invalid
// UTF-8 and U+2028 follow the toolchain's own escaping rules.
func EndString(dst []byte, from int) []byte {
	for _, c := range dst[from:] {
		if !plain[c] {
			q, _ := json.Marshal(string(dst[from:])) // a string always marshals
			return append(dst[:from-1], q...)
		}
	}
	return append(dst, '"')
}

// plain marks the bytes EndString keeps as written.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// Float appends f as json.Marshal spells a float64: the shortest
// round-trip form, in 'f' notation or, outside [1e-6, 1e21), in 'e'
// notation with a negative exponent's leading zero dropped (1e-07 →
// 1e-7). ok is false for NaN and ±Inf, which Marshal rejects; dst is
// then returned unchanged.
func Float(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// OmitString appends key and v as a JSON string unless v is empty; key
// carries the separator and the quoted field name, e.g. `,"search":`.
func OmitString(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return String(append(b, key...), v)
}

// OmitInt appends key and v unless v is zero.
func OmitInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// OmitFloat appends key and v unless v is zero. v must be finite: JSON
// has no spelling for NaN or ±Inf, and the encoders it serves write only
// validated values, so a non-finite one is a bug and panics rather than
// hide in a key.
func OmitFloat(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	b, ok := Float(append(b, key...), v)
	if !ok {
		panic("jsonenc: non-finite " + key + strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b
}
