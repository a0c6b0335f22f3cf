package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

func TestStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "conv1", "inception_3a_5x5_reduce", "a b~c", "DEL\x7f",
		`quote"`, `back\slash`, "<script>", "a&b", "tab\tnl\nbs\bff\f",
		"\x00\x01\x1f", "héllo", "日本", "  ", "bad\xffutf8", "\xc3",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Errorf("String(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	}
}

func TestFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.995, 1e-5, 1e-6, 9.999999e-7, 1e-7, -1e-7,
		5e-324, math.SmallestNonzeroFloat64, 1e20, 1e21, -1e21, 1.5e300, math.MaxFloat64,
		8170825111.700001, 734e-6, 1.25e-9, 123456789012345678,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := Float([]byte("x"), f)
		if !ok || string(got) != "x"+string(want) {
			t.Errorf("Float(%g) = %s (ok %v), want %s", f, got[1:], ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := Float([]byte("x"), f); ok || string(got) != "x" {
			t.Errorf("Float(%g) = %q, %v; want unchanged and false", f, got, ok)
		}
	}
}
