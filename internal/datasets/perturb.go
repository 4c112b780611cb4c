package datasets

import (
	"fmt"
	"math/rand"
	"sort"

	"multirag/internal/kg"
)

// MaskRelations implements the Q2 sparsity perturbation: it removes frac of
// the graph's triples at random, stratified so the corpus's correct/incorrect
// claim ratio is preserved (uniform masking would otherwise launder conflict
// out of the corpus), and never removing the last correct claim of a gold
// fact — the paper's constraint that "query answers are still retrievable".
// gold maps GoldKey → true values; pass nil to mask without stratification or
// the answerability guard. It returns the number of triples removed.
func MaskRelations(g *kg.Graph, frac float64, seed uint64, gold map[string][]string) int {
	if frac <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	ids := g.TripleIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	isCorrect := func(t *kg.Triple) (string, bool) {
		if gold == nil {
			return "", false
		}
		key := g.Key(t)
		vals, ok := gold[key]
		if !ok {
			return key, false
		}
		for _, v := range vals {
			if kg.CanonicalID(v) == kg.CanonicalID(t.Object) {
				return key, true
			}
		}
		return key, false
	}
	if gold == nil {
		target := int(float64(len(ids)) * frac)
		removed := 0
		for _, id := range ids {
			if removed >= target {
				break
			}
			if g.RemoveTriple(id) {
				removed++
			}
		}
		return removed
	}
	// Stratify: partition into correct and incorrect claims, mask frac of
	// each stratum independently.
	var correct, wrong []string
	correctLeft := map[string]int{}
	for _, id := range ids {
		t, _ := g.Triple(id)
		if key, ok := isCorrect(t); ok {
			correct = append(correct, id)
			correctLeft[key]++
		} else {
			wrong = append(wrong, id)
		}
	}
	// Remove from the correct stratum first (the guard may stall below the
	// target); then remove the same *achieved* fraction from the wrong
	// stratum so the corpus conflict ratio is preserved at every level.
	removed := 0
	targetCorrect := int(float64(len(correct)) * frac)
	removedCorrect := 0
	for _, id := range correct {
		if removedCorrect >= targetCorrect {
			break
		}
		t, _ := g.Triple(id)
		key, _ := isCorrect(t)
		if correctLeft[key] <= 1 {
			continue // keep the query answerable
		}
		if g.RemoveTriple(id) {
			correctLeft[key]--
			removedCorrect++
			removed++
		}
	}
	achieved := frac
	if len(correct) > 0 {
		achieved = float64(removedCorrect) / float64(len(correct))
	}
	targetWrong := int(float64(len(wrong)) * achieved)
	if targetWrong > len(wrong) {
		targetWrong = len(wrong)
	}
	for _, id := range wrong[:targetWrong] {
		if g.RemoveTriple(id) {
			removed++
		}
	}
	return removed
}

// AddShuffledTriples implements the Q2 inconsistency perturbation: it adds
// frac·|T| copies of existing triples whose objects are shuffled amongst the
// copies, destroying multi-source consistency exactly as §IV-B describes
// ("the new triples are copies of the original triples ... completely
// shuffled the relationship edges"). The added triples are attributed to a
// synthetic "perturb" source. It returns the number of triples added.
func AddShuffledTriples(g *kg.Graph, frac float64, seed uint64) int {
	if frac <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	ids := g.TripleIDs()
	n := int(float64(len(ids)) * frac)
	if n == 0 {
		return 0
	}
	// Sample n template triples and shuffle their objects within each
	// predicate family, so the injected claims stay type-plausible (a status
	// swaps with another flight's status) and genuinely conflict instead of
	// being trivially filterable nonsense.
	picks := make([]*kg.Triple, 0, n)
	for i := 0; i < n; i++ {
		t, _ := g.Triple(ids[rng.Intn(len(ids))])
		picks = append(picks, t)
	}
	families := map[string][]int{}
	for i, t := range picks {
		families[g.Predicate(t)] = append(families[g.Predicate(t)], i)
	}
	objects := make([]string, len(picks))
	preds := make([]string, 0, len(families))
	for p := range families {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		group := families[p]
		vals := make([]string, len(group))
		for j, i := range group {
			vals[j] = picks[i].Object
		}
		// Rotate by a random offset: every copy lands on a different
		// record's value for the same attribute.
		if len(vals) > 1 {
			off := 1 + rng.Intn(len(vals)-1)
			rotated := append(vals[off:], vals[:off]...)
			vals = rotated
		}
		for j, i := range group {
			objects[i] = vals[j]
		}
	}
	added := 0
	for i, t := range picks {
		_, err := g.AddTriple(kg.Fact{
			Subject:   g.Subject(t),
			Predicate: g.Predicate(t),
			Object:    objects[i],
			Source:    "perturb-" + t.Source,
			Domain:    g.Domain(t),
			Format:    g.Format(t),
			Weight:    t.Weight,
		})
		if err == nil {
			added++
		}
	}
	return added
}

// CorruptSources implements the Fig. 6 corruption sweep at the claim level:
// it rewrites frac of each source's claims to a wrong value from the
// dataset's conflict pool, returning a new claim slice. The dataset files are
// regenerated from the corrupted claims so the whole ingestion path sees the
// corruption.
func (d *Dataset) CorruptSources(frac float64, seed uint64) (*Dataset, error) {
	if frac <= 0 {
		return d, nil
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	out := &Dataset{Spec: d.Spec, Gold: d.Gold, Queries: d.Queries}
	bySource := map[string][]Claim{}
	var srcOrder []string
	for _, c := range d.Claims {
		if _, ok := bySource[c.Source]; !ok {
			srcOrder = append(srcOrder, c.Source)
		}
		bySource[c.Source] = append(bySource[c.Source], c)
	}
	sort.Strings(srcOrder)
	corrupted := map[string][]Claim{}
	for _, src := range srcOrder {
		claims := bySource[src]
		cp := make([]Claim, len(claims))
		copy(cp, claims)
		for i := range cp {
			if rng.Float64() < frac {
				cp[i].Value = corruptClaimValue(rng, cp[i].Value)
				cp[i].Correct = false
			}
		}
		corrupted[src] = cp
	}
	for _, src := range d.Spec.Sources {
		out.Claims = append(out.Claims, corrupted[src.Name]...)
		f, err := materialise(d.Spec, src, corrupted[src.Name])
		if err != nil {
			return nil, fmt.Errorf("datasets: corrupt %s: %w", d.Spec.Name, err)
		}
		out.Files = append(out.Files, f)
	}
	return out, nil
}

func corruptClaimValue(rng *rand.Rand, v string) string {
	// Flip to a structurally similar but wrong value.
	kinds := []string{"person", "year", "word", "number", "status", "city"}
	return genValue(rng, kinds[rng.Intn(len(kinds))])
}
