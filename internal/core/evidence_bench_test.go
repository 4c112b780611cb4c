package core

import (
	"context"
	"testing"
)

// TestEvidenceMemoHitAllocCeiling pins the memo's shared, read-only entries:
// a complete memo hit of gatherEvidence hands back the stored evidence and
// delta with no copy, so it allocates nothing (x86-64, Go 1.24). It read 4
// while answers carried stage snapshots and every hit deep-copied them.
func TestEvidenceMemoHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	s := newExecutorSystem(t, Config{})
	ctx, sn := context.Background(), s.snap.Load()
	s.gatherEvidence(ctx, sn, "", "Team Beta", "manager")
	if ent, ok := s.evidence.get(sn.gen, "Team Beta", "manager"); !ok || ent.group != nil || ent.point != nil {
		t.Fatalf("want a complete memo entry, got ok=%v %+v", ok, ent)
	}
	if got := testing.AllocsPerRun(100, func() { s.gatherEvidence(ctx, sn, "", "Team Beta", "manager") }); got > 0 {
		t.Fatalf("%.0f allocs per complete memo hit, ceiling 0", got)
	}
}

// BenchmarkGatherEvidence measures one homologous sub-question through
// gatherEvidence on the executor corpus, history frozen (no delta applied):
//
//   - complete-hit: a consistent key whose whole outcome is memoised;
//   - partial-hit: a conflicting key, where the memo holds MCC's prepared
//     half and the hit runs the history-dependent finish;
//   - miss: the same conflicting key with its entry deleted before each
//     call — subject standardisation, candidate lookup, both MCC halves and
//     the partial put.
//
// allocs/op is the tracked number: the engine's share of a request, without
// the serving stack and client that dilute it end to end. Run with
// -benchmem, or via `make bench-micro`.
func BenchmarkGatherEvidence(b *testing.B) {
	for _, c := range []struct {
		name, entity, relation string
		miss, partial          bool
	}{
		{"complete-hit", "Team Beta", "manager", false, false},
		{"partial-hit", "Dana Fox", "city", false, true},
		{"miss", "Dana Fox", "city", true, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewSystem(Config{})
			if _, err := s.Ingest(executorFiles()); err != nil {
				b.Fatal(err)
			}
			ctx, sn := context.Background(), s.snap.Load()
			s.gatherEvidence(ctx, sn, "", c.entity, c.relation)
			if ent, ok := s.evidence.get(sn.gen, c.entity, c.relation); !ok || (ent.group != nil) != c.partial {
				b.Fatalf("%s: want a memo entry with partial=%v, got ok=%v %+v", c.name, c.partial, ok, ent)
			}
			key := evidenceKey(c.entity, c.relation)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.miss {
					s.evidence.mu.Lock()
					delete(s.evidence.m, key)
					s.evidence.mu.Unlock()
				}
				s.gatherEvidence(ctx, sn, "", c.entity, c.relation)
			}
		})
	}
}
