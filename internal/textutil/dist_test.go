package textutil

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewDistNormalised(t *testing.T) {
	d := NewDist([]string{"a", "b", "a", "c"})
	if !reflect.DeepEqual(d.Tokens, []string{"a", "b", "c"}) {
		t.Fatalf("support = %v, want [a b c]", d.Tokens)
	}
	var total float64
	for _, p := range d.P {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("total = %v, want 1", total)
	}
	if math.Abs(d.P[0]-0.5) > 1e-12 {
		t.Fatalf("p(a) = %v, want 0.5", d.P[0])
	}
	if e := NewDist(nil); len(e.Tokens) != 0 || len(e.P) != 0 || e.H != 0 {
		t.Fatalf("no tokens must give the zero Dist, got %+v", e)
	}
}

func TestEntropyUniform(t *testing.T) {
	d := NewDist([]string{"a", "b", "c", "d"})
	want := math.Log(4)
	if math.Abs(d.H-want) > 1e-12 {
		t.Fatalf("H(uniform4) = %v, want %v", d.H, want)
	}
}

func TestEntropyDegenerate(t *testing.T) {
	d := NewDist([]string{"only", "only"})
	if d.H != 0 {
		t.Fatalf("H(point mass) = %v, want 0", d.H)
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	f := func(words []string) bool {
		if len(words) == 0 {
			return true
		}
		d := NewDist(words)
		// 0 <= H <= log(|support|)
		return d.H >= -1e-12 && d.H <= math.Log(float64(len(d.Tokens)))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSupportSorted: the support is strictly ascending with one positive
// mass per token, whatever order and multiplicity the tokens arrive in.
func TestSupportSorted(t *testing.T) {
	f := func(words []string) bool {
		d := NewDist(words)
		if len(d.P) != len(d.Tokens) {
			return false
		}
		for i := range d.Tokens {
			if d.P[i] <= 0 || (i > 0 && d.Tokens[i-1] >= d.Tokens[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if d := NewDist([]string{"zebra", "apple", "mango", "apple"}); !reflect.DeepEqual(d.Tokens, []string{"apple", "mango", "zebra"}) {
		t.Fatalf("support = %v", d.Tokens)
	}
}

func TestHashDeterminism(t *testing.T) {
	if Hash64("multirag") != Hash64("multirag") {
		t.Fatal("Hash64 must be deterministic")
	}
	if Hash01("x") < 0 || Hash01("x") >= 1 {
		t.Fatalf("Hash01 out of range: %v", Hash01("x"))
	}
	f := func(s string, n uint8) bool {
		m := int(n%100) + 1
		return Hash64(s)%uint64(m) < uint64(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var distSink Dist

// BenchmarkNewDist times one token distribution over a short value's tokens
// and over a ~64-token chunk's, the inputs of the mutual-information terms
// MCC computes. Each iteration copies the tokens back first, since NewDist
// sorts its input in place.
func BenchmarkNewDist(b *testing.B) {
	for _, c := range []struct{ name, text string }{
		{"value", "Beijing Capital International Airport"},
		{"chunk", "The status of Flight CA981 is Delayed. The departure gate of Flight CA981 is B12. " +
			"The operator of Flight CA981 is Air China. The origin of Flight CA981 is Beijing. " +
			"According to AirChina Official API, the status of Flight CA981 is Delayed."},
	} {
		toks := Tokenize(c.text)
		buf := make([]string, len(toks))
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				copy(buf, toks)
				distSink = NewDist(buf)
			}
		})
	}
}
