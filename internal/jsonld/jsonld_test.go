package jsonld

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestValueStrings(t *testing.T) {
	scalar, list, node, zero := Value{Str: "a"}, Value{List: []string{"a", "b"}}, Value{Node: &Document{ID: "n"}}, Value{}
	if got := scalar.Strings(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("scalar Strings = %v", got)
	}
	if got := list.Strings(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("list Strings = %v", got)
	}
	if got := node.Strings(); !reflect.DeepEqual(got, []string{"n"}) {
		t.Errorf("node Strings = %v", got)
	}
	if zero.Strings() != nil {
		t.Errorf("zero value Strings must be nil")
	}
	// Ranged over as extraction does, the call inlines and its singleton
	// stays on the caller's stack.
	total := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range scalar.Strings() {
			total += len(s)
		}
		for _, s := range node.Strings() {
			total += len(s)
		}
	}); n != 0 {
		t.Errorf("ranging over Strings of a scalar and a node allocates %.0f objects", n)
	}
}

// TestKeysSorted: Get finds each property of a document that holds them in
// key order, and no other key.
func TestKeysSorted(t *testing.T) {
	d := &Document{ID: "x", Type: "T"}
	for _, k := range []string{"", "@key", "alpha", "alpha/0", "mid", "zeta"} {
		d.Props = append(d.Props, Prop{Key: k, Value: Value{Str: "v" + k}})
	}
	for _, p := range d.Props {
		if v, ok := d.Get(p.Key); !ok || v.Str != "v"+p.Key {
			t.Fatalf("Get(%q) = %+v, %v", p.Key, v, ok)
		}
	}
	for _, k := range []string{"@", "alph", "beta", "zz"} {
		if _, ok := d.Get(k); ok {
			t.Fatalf("Get(%q) found a property", k)
		}
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
	n := &Normalized{ID: "i", Domain: "d", Name: "n", JSC: []*Document{{ID: "r1", Type: "Row"}}}
	if err := n.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := &Normalized{}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty identity must be rejected")
	}
}
