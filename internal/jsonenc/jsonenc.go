// Package jsonenc appends the bytes encoding/json's Marshal writes for a
// string and a float64, without reflection. It serves the hand-written
// encoders on ranad's request path — the canonical cache key and the
// schedule response body — whose output must stay byte-identical to
// json.Marshal of the tagged structs their tests keep as the reference.
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
