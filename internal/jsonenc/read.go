package jsonenc

// Reading: a strict JSON reader held to encoding/json's decoding.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// Reader reads one JSON document held in memory into Go values through
// field tables, without reflection. For the struct, pointer, slice,
// string, integer, float and bool types its tables cover it accepts
// exactly the documents encoding/json's Decoder accepts with
// DisallowUnknownFields and leaves the same values, quirks included:
// keys match their field's name exactly or else under bytes.EqualFold,
// null leaves a scalar or struct unchanged and clears a pointer or a
// slice, and a repeated key decodes into what the previous one left.
// The first error stops the reader; every later read is a no-op.
type Reader struct {
	data []byte
	off  int
	err  error
}

// Field is one member of T's JSON object form: Name is its key as the
// field's json tag spells it, and Read decodes the member's value into
// the field of v.
type Field[T any] struct {
	Name string
	Read func(r *Reader, v *T)
}

// Fields is T's member table, in struct field order.
type Fields[T any] []Field[T]

// Decode reads data as one JSON object into v through fields. A
// top-level null leaves v unchanged. Unlike encoding/json's Decoder,
// whose More reports false before a '}' or ']', it rejects anything but
// whitespace after the document as trailing data.
func Decode[T any](data []byte, v *T, fields Fields[T]) error {
	r := &Reader{data: data}
	Object(r, v, fields)
	if r.err == nil {
		if _, ok := r.peek(); ok {
			r.fail("trailing data at offset %d", r.off)
		}
	}
	return r.err
}

// Object reads an object into v through fields; null leaves v
// unchanged. A key names the first field whose Name equals it, or else
// the first that bytes.EqualFold matches; any other key is an error.
func Object[T any](r *Reader, v *T, fields Fields[T]) {
	if r.null() || !r.open('{', "object") {
		return
	}
	if r.closes('}') {
		return
	}
	for next := 0; ; {
		key := r.key()
		if r.err != nil {
			return
		}
		i := fields.lookup(key, next)
		if i < 0 {
			r.fail("unknown field %q", key)
			return
		}
		if !r.expect(':', "after object key") {
			return
		}
		if fields[i].Read(r, v); r.err != nil {
			r.err = fmt.Errorf("%s: %w", fields[i].Name, r.err)
			return
		}
		next = i + 1
		if !r.more('}', "after object key:value pair") {
			return
		}
	}
}

// lookup returns the index of the field key names, or -1. Names are
// distinct, so the search for an exact match may start at from, the
// field after the previous key's: encoders write members in field order.
func (fs Fields[T]) lookup(key []byte, from int) int {
	for j := range fs {
		if j += from; j >= len(fs) {
			j -= len(fs)
		}
		if string(key) == fs[j].Name {
			return j
		}
	}
	for i := range fs {
		if bytes.EqualFold(key, []byte(fs[i].Name)) {
			return i
		}
	}
	return -1
}

// Pointer reads an object into *p through fields: null sets *p to nil,
// and an object decodes into *p, allocated first when nil.
func Pointer[T any](r *Reader, p **T, fields Fields[T]) {
	if r.err != nil {
		return
	}
	if r.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	Object(r, *p, fields)
}

// Slice reads an array into *s, each element through elem. null sets
// *s to nil and [] to an empty non-nil slice. Elements decode into the
// slice's own storage, without zeroing it first: within its length, and
// past it within its capacity, where a previous value of a repeated key
// may remain. Beyond the capacity *s grows by append, and it ends at the
// elements read.
func Slice[T any](r *Reader, s *[]T, elem func(r *Reader, v *T)) {
	if r.err != nil {
		return
	}
	if r.null() {
		*s = nil
		return
	}
	if !r.open('[', "array") {
		return
	}
	if r.closes(']') {
		*s = []T{}
		return
	}
	for i := 0; ; i++ {
		switch v := *s; {
		case i < len(v):
		case i < cap(v):
			*s = v[:i+1]
		default:
			var zero T
			*s = append(v, zero)
		}
		if elem(r, &(*s)[i]); !r.more(']', "after array element") {
			*s = (*s)[:i+1]
			return
		}
	}
}

// String reads a string into *dst; null leaves *dst unchanged. A string
// of printable ASCII without escapes is copied as it stands; any other
// is unquoted by encoding/json, which turns invalid UTF-8 and lone
// surrogates into U+FFFD.
func (r *Reader) String(dst *string) {
	if !r.value('"', "string") {
		return
	}
	tok, plain := r.stringToken()
	switch {
	case r.err != nil:
	case plain:
		*dst = string(tok[1 : len(tok)-1])
	default:
		if err := json.Unmarshal(tok, dst); err != nil {
			r.fail("%v", err)
		}
	}
}

// Int reads an integer into *dst; null leaves *dst unchanged. A
// fraction, an exponent or a value outside int's range is an error.
func (r *Reader) Int(dst *int) {
	if tok := r.number("int"); tok != nil {
		if n, ok := small(tok); ok && int64(int(n)) == n {
			*dst = int(n)
			return
		}
		n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			r.fail("cannot read number %s into int", tok)
			return
		}
		*dst = int(n)
	}
}

// Int64 reads an integer into *dst as Int does.
func (r *Reader) Int64(dst *int64) {
	if tok := r.number("int64"); tok != nil {
		if n, ok := small(tok); ok {
			*dst = n
			return
		}
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			r.fail("cannot read number %s into int64", tok)
			return
		}
		*dst = n
	}
}

// Uint64 reads an unsigned integer into *dst; null leaves *dst
// unchanged. A sign, a fraction, an exponent or a value above 2^64-1 is
// an error.
func (r *Reader) Uint64(dst *uint64) {
	if tok := r.number("uint64"); tok != nil {
		if n, ok := small(tok); ok && tok[0] != '-' {
			*dst = uint64(n)
			return
		}
		n, err := strconv.ParseUint(string(tok), 10, 64)
		if err != nil {
			r.fail("cannot read number %s into uint64", tok)
			return
		}
		*dst = n
	}
}

// Float64 reads a number into *dst; null leaves *dst unchanged. A
// number beyond float64's range is an error.
func (r *Reader) Float64(dst *float64) {
	if tok := r.number("float64"); tok != nil {
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			r.fail("cannot read number %s into float64", tok)
			return
		}
		*dst = f
	}
}

// Bool reads true or false into *dst; null leaves *dst unchanged.
func (r *Reader) Bool(dst *bool) {
	if r.null() {
		return
	}
	switch {
	case r.literal("true"):
		*dst = true
	case r.literal("false"):
		*dst = false
	default:
		r.mismatch("bool")
	}
}

// null consumes a null if one is next and reports whether it did.
func (r *Reader) null() bool {
	return r.literal("null")
}

// literal consumes word, a true, false or null, if it is next and
// reports whether it did.
func (r *Reader) literal(word string) bool {
	if c, ok := r.peek(); !ok || c != word[0] {
		return false
	}
	if end := r.off + len(word); end > len(r.data) || string(r.data[r.off:end]) != word {
		r.syntax("in literal " + word)
		return false
	}
	r.off += len(word)
	return true
}

// number returns the number token next in the document, or nil after
// a null or an error; any other value is a type error naming want.
func (r *Reader) number(want string) []byte {
	if !r.value('0', want) {
		return nil
	}
	start, d := r.off, r.data
	i := start
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && isDigit(d[i]):
		i = digits(d, i)
	default:
		r.off = i
		r.syntax("in numeric literal")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || !isDigit(d[i]) {
			r.off = i
			r.syntax("after decimal point in numeric literal")
			return nil
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			r.off = i
			r.syntax("in exponent of numeric literal")
			return nil
		}
		i = digits(d, i)
	}
	r.off = i
	return d[start:i]
}

// small returns the value of a number token that is an integer of at
// most 18 digits, which strconv would parse to the same value and which
// cannot overflow an int64.
func small(tok []byte) (n int64, ok bool) {
	mag := tok
	if tok[0] == '-' {
		mag = tok[1:]
	}
	if len(mag) > 18 {
		return 0, false
	}
	for _, c := range mag {
		if !isDigit(c) {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if tok[0] == '-' {
		n = -n
	}
	return n, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// key returns the object key next in the document, unquoted: in place
// when it is plain, else through encoding/json.
func (r *Reader) key() []byte {
	if c, ok := r.peek(); !ok || c != '"' {
		r.syntax("looking for beginning of object key string")
		return nil
	}
	tok, plain := r.stringToken()
	if r.err != nil {
		return nil
	}
	if plain {
		return tok[1 : len(tok)-1]
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		r.fail("%v", err)
		return nil
	}
	return []byte(s)
}

// stringToken consumes the string token at r.off, quotes included, and
// reports whether it is plain: printable ASCII without a backslash. A
// backslash hides the byte after it from the search for the closing
// quote. Whether a token that is not plain is a valid string is left to
// encoding/json, which unquotes it.
func (r *Reader) stringToken() (tok []byte, plain bool) {
	start, d := r.off, r.data
	plain = true
	for i := start + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			r.off = i + 1
			return d[start:r.off], plain
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	r.off = len(d)
	r.fail("unexpected end of JSON input")
	return d[start:start], false
}

// open consumes c, which opens the value want names, or fails.
func (r *Reader) open(c byte, want string) bool {
	if next, ok := r.peek(); ok && next == c {
		r.off++
		return true
	}
	r.mismatch(want)
	return false
}

// value reports whether the next value starts with c, or for c '0'
// with a digit or a minus sign, for the caller to read. A null is
// consumed instead, and anything else is a type error naming want.
func (r *Reader) value(c byte, want string) bool {
	switch next, ok := r.peek(); {
	case !ok:
	case next == c || c == '0' && (next == '-' || isDigit(next)):
		return true
	case next == 'n':
		r.null()
		return false
	}
	r.mismatch(want)
	return false
}

// closes consumes c, which closes the open object or array, if it is
// next and reports whether it did.
func (r *Reader) closes(c byte) bool {
	if next, ok := r.peek(); ok && next == c {
		r.off++
		return true
	}
	return false
}

// more consumes the ',' before another member or element and reports
// true, or consumes end, which closes the object or array, and reports
// false; anything else is a syntax error.
func (r *Reader) more(end byte, context string) bool {
	switch c, ok := r.peek(); {
	case ok && c == ',':
		r.off++
		return true
	case ok && c == end:
		r.off++
	default:
		r.syntax(context)
	}
	return false
}

// expect consumes c or fails.
func (r *Reader) expect(c byte, context string) bool {
	if next, ok := r.peek(); ok && next == c {
		r.off++
		return true
	}
	r.syntax(context)
	return false
}

// peek skips whitespace and returns the next byte; ok is false at the
// end of the document or after an error.
func (r *Reader) peek() (c byte, ok bool) {
	if r.err != nil {
		return 0, false
	}
	for ; r.off < len(r.data); r.off++ {
		switch c := r.data[r.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, true
		}
	}
	return 0, false
}

// mismatch fails with a type error: the next value is not want.
func (r *Reader) mismatch(want string) {
	if c, ok := r.peek(); ok {
		r.fail("want %s at offset %d, found %q", want, r.off, c)
		return
	}
	r.syntax("")
}

// syntax fails with a syntax error at r.off.
func (r *Reader) syntax(context string) {
	if r.err != nil {
		return
	}
	if r.off >= len(r.data) {
		r.fail("unexpected end of JSON input")
		return
	}
	r.fail("invalid character %q at offset %d %s", r.data[r.off], r.off, context)
}

// fail records the reader's first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}
