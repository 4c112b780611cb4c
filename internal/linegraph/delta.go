package linegraph

import "multirag/internal/kg"

// BuildDelta returns Build(g). The graph keeps the line graph's counts as
// its triples are linked and removed, so a delta has nothing to adjust and
// prev and newTripleIDs are unused. It remains only for the benchmark's
// per-layer pass (benchmark/layers), which calls it by this name.
func BuildDelta(prev *SG, g *kg.Graph, newTripleIDs []string) *SG { return Build(g) }
