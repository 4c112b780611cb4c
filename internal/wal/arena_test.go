package wal

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestArenaKeepsValuesInBlocks checks what an arena promises: every kept
// value reads back as written after later values fill and retire its block,
// consecutive values lie side by side in one block, a value too long for a
// block is a string of its own, and values cost one heap object per block,
// not one each.
func TestArenaKeepsValuesInBlocks(t *testing.T) {
	var a Arena
	var kept, want []string
	for i := 0; i < 3*arenaBlock/10; i++ {
		v := strings.Repeat(string(rune('a'+i%26)), 1+i%17)
		kept = append(kept, a.keep(v[:len(v)/2], []byte(v[len(v)/2:])))
		want = append(want, v)
	}
	for i := range kept {
		if kept[i] != want[i] {
			t.Fatalf("value %d reads %q, kept %q", i, kept[i], want[i])
		}
	}
	if end := unsafe.Add(unsafe.Pointer(unsafe.StringData(kept[0])), len(kept[0])); end != unsafe.Pointer(unsafe.StringData(kept[1])) {
		t.Fatal("consecutive values are not side by side in one block")
	}
	long := strings.Repeat("x", arenaMaxValue+1)
	before := a.block.Len()
	if got := a.keep("", []byte(long)); got != long || a.block.Len() != before {
		t.Fatalf("a %d-byte value was kept in the block", len(long))
	}
	if a.keep("", nil) != "" || (*Arena)(nil).keep("ab", []byte("c")) != "abc" {
		t.Fatal("an empty value or a nil arena keeps the wrong value")
	}

	const values = 4096
	v := []byte("0123456789abcdef") // 16 bytes: values/64 blocks' worth
	a = Arena{}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < values; i++ {
			a.keep("", v)
		}
	})
	if blocks := float64(values*len(v)) / arenaBlock; allocs > blocks+1 {
		t.Fatalf("%d values of %d bytes cost %.0f heap objects, want at most %.0f (a block each)", values, len(v), allocs, blocks+1)
	}
}

// TestArenaReadersDoNotRaceTheWriter hands values one writer keeps to reader
// goroutines while the writer goes on appending to the same blocks, as an
// engine publishes a snapshot and keeps committing: under -race, reading a
// value must not race with the appends that follow it.
func TestArenaReadersDoNotRaceTheWriter(t *testing.T) {
	var a Arena
	vals := make(chan string, 64) // lets the writer run ahead of the readers
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range vals {
				if strings.Trim(v, "x") != "" {
					t.Errorf("a kept value reads %q", v)
				}
			}
		}()
	}
	tail := []byte(strings.Repeat("x", 40))
	for i := range 2 * arenaBlock / 8 {
		vals <- a.keep("x", tail[:i%len(tail)])
	}
	close(vals)
	wg.Wait()
}
