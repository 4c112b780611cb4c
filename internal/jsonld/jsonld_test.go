package jsonld

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
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

// TestNormalizedIDClipsLongIdentifiers: an identifier over idPartBytes is
// spelled out to its first idPartBytes bytes, cut at a rune boundary, and
// files whose identifiers share those bytes still get distinct IDs.
func TestNormalizedIDClipsLongIdentifiers(t *testing.T) {
	long := strings.Repeat("é", idPartBytes) // two bytes a rune
	id := NormalizedID(long, "imdb", long+"x")
	if want := long[:idPartBytes] + "/imdb/" + long[:idPartBytes] + "#"; !strings.HasPrefix(id, want) || len(id) != len(want)+16 {
		t.Fatalf("NormalizedID = %q, want %q and 16 hex digits", id, want)
	}
	if !utf8.ValidString(id) {
		t.Fatalf("NormalizedID cut a rune: %q", id)
	}
	if odd := NormalizedID("x"+long, "s", "n"); !utf8.ValidString(odd) || !strings.HasPrefix(odd, "x"+long[:idPartBytes-2]+"/") {
		t.Fatalf("NormalizedID = %q, want the rune that crosses the limit dropped", odd)
	}
	if id == NormalizedID(long, "imdb", long+"y") {
		t.Fatal("identifiers that differ past the clip must yield different IDs")
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
