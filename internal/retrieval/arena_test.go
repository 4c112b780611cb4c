package retrieval

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestArenaRoundTrip pins the stride arithmetic: vectors read back from the
// arena are exactly the vectors appended, in order.
func TestArenaRoundTrip(t *testing.T) {
	const dim = 48
	a := arena{dim: dim}
	rng := rand.New(rand.NewSource(5))
	var want []Vector
	for i := 0; i < 37; i++ {
		v := Embed(fmt.Sprintf("chunk number %d has %d tokens", i, rng.Intn(9)), dim)
		want = append(want, v)
		a.appendVec(v)
	}
	if a.len() != len(want) {
		t.Fatalf("arena len = %d, want %d", a.len(), len(want))
	}
	for i, w := range want {
		got := a.at(i)
		for d := range w {
			if got[d] != w[d] {
				t.Fatalf("vector %d dim %d: got %v want %v", i, d, got[d], w[d])
			}
		}
	}
}

// TestArenaRejectsDimMismatch: the arena fixes the stride at construction, so
// a mismatched append must fail before mutating anything.
func TestArenaRejectsDimMismatch(t *testing.T) {
	a := arena{dim: 16}
	a.appendVec(make(Vector, 16))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("appendVec with wrong dim must panic")
			}
		}()
		a.appendVec(make(Vector, 8))
	}()
	if a.len() != 1 {
		t.Fatalf("rejected append mutated the arena: len = %d", a.len())
	}
}

// TestAddEmbeddedBatchValidation: a malformed batch (length mismatch or a
// dim-mismatched vector) must panic up front with the store untouched.
func TestAddEmbeddedBatchValidation(t *testing.T) {
	mustPanic := func(t *testing.T, name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	cs := []Chunk{{ID: "a#c0", Text: "x"}, {ID: "b#c0", Text: "y"}}
	good := []Vector{make(Vector, 32), make(Vector, 32)}
	st := NewIndex(32)
	st.AddEmbeddedBatch(cs, good) // well-formed baseline
	if st.Len() != 2 {
		t.Fatalf("baseline batch lost: len=%d", st.Len())
	}
	mustPanic(t, "length mismatch", func() {
		st.AddEmbeddedBatch([]Chunk{{ID: "c#c0"}, {ID: "d#c0"}}, good[:1])
	})
	mustPanic(t, "dim mismatch", func() {
		st.AddEmbeddedBatch([]Chunk{{ID: "c#c0"}, {ID: "d#c0"}}, []Vector{make(Vector, 32), make(Vector, 16)})
	})
	if st.Len() != 2 {
		t.Fatalf("rejected batch mutated the store: len=%d", st.Len())
	}
	// AddEmbedded single-vector path rejects too.
	ix := NewIndex(32)
	mustPanic(t, "AddEmbedded dim mismatch", func() {
		ix.AddEmbedded(Chunk{ID: "a#c0"}, make(Vector, 31))
	})
	if ix.Len() != 0 {
		t.Fatalf("rejected AddEmbedded mutated the store: len=%d", ix.Len())
	}
}
