package hw

import (
	"math"
	"testing"

	"rana/internal/energy"
)

func TestTestAccelerator(t *testing.T) {
	c := TestAccelerator()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// §III-A: 256 PEs in a 16×16 array at 200 MHz, 36 KB local storage,
	// 384 KB SRAM buffer.
	if c.PEs() != 256 {
		t.Errorf("PEs = %d", c.PEs())
	}
	if c.FrequencyHz != 200e6 {
		t.Errorf("frequency = %g", c.FrequencyHz)
	}
	localKB := (c.LocalInput + c.LocalOutput + c.LocalWeight) * 2 / 1024
	if localKB != 36 {
		t.Errorf("local storage = %d KB, want 36", localKB)
	}
	if c.BufferWords != 384*1024/2 || c.BufferTech != energy.SRAM {
		t.Errorf("buffer = %d words %v", c.BufferWords, c.BufferTech)
	}
	if c.Banks() != 12 {
		t.Errorf("banks = %d, want 12 (384 KB / 32 KB)", c.Banks())
	}
}

func TestTestAcceleratorEDRAM(t *testing.T) {
	c := TestAcceleratorEDRAM()
	if c.BufferTech != energy.EDRAM {
		t.Error("tech")
	}
	// 1.454 paper-MB = 1454 KiB.
	if c.BufferWords != 1454*1024/2 {
		t.Errorf("capacity = %d words", c.BufferWords)
	}
	// Partial last bank still exists for conventional refresh.
	if c.Banks() != 46 {
		t.Errorf("banks = %d, want 46", c.Banks())
	}
}

func TestDaDianNao(t *testing.T) {
	c := DaDianNao()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// §V-C: 4096 PEs, 36 MB eDRAM, 606 MHz, adder-tree mapping.
	if c.PEs() != 4096 || c.FrequencyHz != 606e6 {
		t.Errorf("PEs=%d f=%g", c.PEs(), c.FrequencyHz)
	}
	if c.Mapping != MapOutputInput {
		t.Error("DaDianNao maps output×input channels")
	}
	if c.BufferTech != energy.EDRAM {
		t.Error("tech")
	}
}

func TestWithers(t *testing.T) {
	c := TestAccelerator()
	d := c.WithBufferWords(123).WithBufferTech(energy.EDRAM)
	if d.BufferWords != 123 || d.BufferTech != energy.EDRAM {
		t.Error("withers did not apply")
	}
	if c.BufferWords == 123 {
		t.Error("withers mutated the receiver")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(Config) Config{
		func(c Config) Config { c.ArrayM = 0; return c },
		func(c Config) Config { c.FrequencyHz = -1; return c },
		func(c Config) Config { c.LocalInput = 0; return c },
		func(c Config) Config { c.BufferWords = 0; return c },
		func(c Config) Config { c.BankWords = 0; return c },
	}
	for i, mut := range bad {
		if err := mut(TestAccelerator()).Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestValidateRejectsNonFiniteFrequency: a NaN clock slips past a
// "<= 0" check and schedules to a negative execution time, +Inf to a
// zero one; the canonical frame has no spelling for either.
func TestValidateRejectsNonFiniteFrequency(t *testing.T) {
	for _, tc := range []struct {
		hz float64
		ok bool
	}{
		{200e6, true}, {math.MaxFloat64, true}, {5e-324, true},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false}, {0, false}, {-1, false},
	} {
		c := TestAccelerator()
		c.FrequencyHz = tc.hz
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("frequency %g: Validate() = %v, want ok=%v", tc.hz, err, tc.ok)
		}
	}
}

func TestMappingString(t *testing.T) {
	if MapOutputPixel.String() != "output×pixel" || MapOutputInput.String() != "output×input" {
		t.Error("mapping strings")
	}
	if Mapping(9).String() == "" {
		t.Error("unknown mapping should stringify")
	}
}

func TestBanksRoundsUp(t *testing.T) {
	c := TestAccelerator().WithBufferWords(energy.BankWords + 1)
	if c.Banks() != 2 {
		t.Errorf("banks = %d, want 2", c.Banks())
	}
}

func TestEyerissLike(t *testing.T) {
	c := EyerissLike()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.PEs() != 168 || c.Mapping != MapOutputPixel {
		t.Errorf("PEs=%d mapping=%v", c.PEs(), c.Mapping)
	}
	if c.BufferTech != energy.EDRAM {
		t.Error("tech")
	}
}
