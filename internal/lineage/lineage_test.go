package lineage

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestClaimOrFork walks the rule's cases on bare tokens: a linear chain keeps
// claiming on one token; of two holders at one position the second forks onto
// a fresh token on which it, and only it, continues; a holder left behind by
// the chain forks however late it comes.
func TestClaimOrFork(t *testing.T) {
	parent := New(10)
	first, second, late := parent, parent, parent
	if !first.Claim(10, 3) || first != parent {
		t.Fatal("first claimant at the token's position must append in place, on the same token")
	}
	if second.Claim(10, 1) || second == parent {
		t.Fatal("second claimant at a claimed position must fork onto a fresh token")
	}
	if !second.Claim(11, 2) {
		t.Fatal("a forked holder continues in place on its own token")
	}
	grandchild := first
	if !grandchild.Claim(13, 1) || !grandchild.Claim(14, 5) {
		t.Fatal("linear history must keep claiming on one token")
	}
	if late.Claim(10, 1) {
		t.Fatal("a holder the chain has moved past must fork")
	}
	if first.Claim(13, 1) {
		t.Fatal("a parent appending after its clone claimed must fork")
	}
}

// TestClaimHasOneWinner: of many clones of one store claiming the same rows
// at once, exactly one appends in place. The token orders writers; run under
// -race it also shows Claim itself is safe to call on copies concurrently.
func TestClaimHasOneWinner(t *testing.T) {
	for round := 0; round < 50; round++ {
		parent := New(round)
		var wg sync.WaitGroup
		var winners atomic.Int32
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(tok Token) {
				defer wg.Done()
				if tok.Claim(round, 1) {
					winners.Add(1)
				}
			}(parent)
		}
		wg.Wait()
		if winners.Load() != 1 {
			t.Fatalf("round %d: %d claimants won rows [%d,%d)", round, winners.Load(), round, round+1)
		}
	}
}
