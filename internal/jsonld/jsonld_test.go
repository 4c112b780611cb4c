package jsonld

import (
	"reflect"
	"testing"
)

func TestValueStrings(t *testing.T) {
	if got := (Value{Str: "a"}).Strings(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("scalar Strings = %v", got)
	}
	if got := (Value{List: []string{"a", "b"}}).Strings(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("list Strings = %v", got)
	}
	if got := (Value{Node: New("n", "")}).Strings(); !reflect.DeepEqual(got, []string{"n"}) {
		t.Errorf("node Strings = %v", got)
	}
	if (Value{}).Strings() != nil {
		t.Errorf("zero value Strings must be nil")
	}
}

func TestKeysSorted(t *testing.T) {
	d := New("x", "T")
	d.Set("zeta", "1")
	d.Set("alpha", "2")
	d.Set("mid", "3")
	if got := d.Keys(); !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("Keys = %v", got)
	}
}

func TestNormalizedIDDeterministicAndDistinct(t *testing.T) {
	a := NormalizedID("movies", "imdb", "top")
	b := NormalizedID("movies", "imdb", "top")
	if a != b {
		t.Fatal("NormalizedID must be deterministic")
	}
	if a == NormalizedID("movies", "tmdb", "top") {
		t.Fatal("different sources must yield different IDs")
	}
}

func TestValidateRequiresIdentity(t *testing.T) {
	n := &Normalized{ID: "i", Domain: "d", Name: "n", JSC: []*Document{New("r1", "Row")}}
	if err := n.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := &Normalized{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty identity must be rejected")
	}
}
