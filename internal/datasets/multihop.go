package datasets

import (
	"fmt"
	"math/rand"
)

// The multi-hop generators stand in for HotpotQA and 2WikiMultiHopQA: both
// benchmarks reduce to questions whose answer requires composing facts from
// at least two documents drawn from a distractor-laden corpus. The generator
// emits wiki-style entity documents, bridge questions ("What is the
// birthplace of the director of X?") and — in the 2Wiki style — comparison
// questions ("Do X and Y have the same genre?"), with gold answers and gold
// supporting documents so Precision and Recall@5 are computable.

// Doc is one corpus document.
type Doc struct {
	ID     string
	Title  string
	Text   string
	Source string
}

// QAQuestion is one multi-hop question.
type QAQuestion struct {
	ID       string
	Text     string
	Type     string // "bridge" or "comparison"
	Answer   []string
	Support  []string // gold supporting document IDs
	HopChain []string // entity chain, for diagnostics
}

// QADataset is a generated multi-hop benchmark.
type QADataset struct {
	Name      string
	Docs      []Doc
	Questions []QAQuestion
}

// QASpec parameterises a multi-hop dataset.
type QASpec struct {
	Name string
	// Questions is the number of questions (the paper subsamples 300).
	Questions int
	// Comparison is the fraction of comparison-type questions (0 for the
	// HotpotQA style, ~0.4 for the 2Wiki style).
	Comparison float64
	// ConflictRate is the probability a distractor document contradicts a
	// supporting fact — the hallucination trap the confidence machinery is
	// meant to disarm.
	ConflictRate float64
	// DistractorsPerQ controls corpus noise.
	DistractorsPerQ int
	Seed            uint64
}

// Hotpot returns the HotpotQA-style preset.
func Hotpot(seed uint64) QASpec {
	return QASpec{Name: "hotpotqa", Questions: 300, Comparison: 0, ConflictRate: 0.35, DistractorsPerQ: 4, Seed: seed}
}

// TwoWiki returns the 2WikiMultiHopQA-style preset.
func TwoWiki(seed uint64) QASpec {
	return QASpec{Name: "2wikimultihopqa", Questions: 300, Comparison: 0.4, ConflictRate: 0.4, DistractorsPerQ: 4, Seed: seed}
}

// relation/attribute pools for the wiki-style universe.
var (
	qaRelations  = []string{"director", "author", "founder", "composer"}
	qaAttributes = []string{"birthplace", "nationality", "genre", "alma mater"}
	qaAttrKinds  = map[string]string{"birthplace": "city", "nationality": "city", "genre": "word", "alma mater": "publisher"}
)

// GenerateQA materialises a multi-hop QA dataset.
func GenerateQA(spec QASpec) *QADataset {
	rng := rand.New(rand.NewSource(int64(spec.Seed)))
	d := &QADataset{Name: spec.Name}
	// The word pools are finite; once direct draws start colliding, a
	// deterministic numeric suffix keeps names unique.
	usedTitles := map[string]bool{}
	suffix := 0
	unique := func(gen func() string) string {
		for attempt := 0; attempt < 8; attempt++ {
			n := gen()
			if !usedTitles[normName(n)] {
				usedTitles[normName(n)] = true
				return n
			}
		}
		for {
			suffix++
			n := fmt.Sprintf("%s %d", gen(), suffix)
			if !usedTitles[normName(n)] {
				usedTitles[normName(n)] = true
				return n
			}
		}
	}
	freshTitle := func() string { return unique(func() string { return titleName(rng) }) }
	freshPerson := func() string { return unique(func() string { return personName(rng) }) }
	docN := 0
	addDoc := func(title, text, source string) string {
		docN++
		id := fmt.Sprintf("%s-d%04d", spec.Name, docN)
		d.Docs = append(d.Docs, Doc{ID: id, Title: title, Text: text, Source: source})
		return id
	}
	for q := 0; q < spec.Questions; q++ {
		rel := qaRelations[rng.Intn(len(qaRelations))]
		attr := qaAttributes[rng.Intn(len(qaAttributes))]
		if rng.Float64() < spec.Comparison {
			d.genComparison(rng, spec, q, attr, freshTitle, addDoc)
		} else {
			d.genBridge(rng, spec, q, rel, attr, freshTitle, freshPerson, addDoc)
		}
	}
	return d
}

// genBridge emits a 2-hop bridge question: entity —rel→ bridge —attr→ answer.
// Conflict distractors poison either hop: a forum document claims a decoy
// bridge for hop 1 (and the decoy has its own attribute document, creating a
// plausible wrong reasoning branch), or contradicts the bridge's attribute
// directly for hop 2. Methods without confidence filtering follow the decoy
// branch or average the contradiction — the hallucination cascade of §I.
func (d *QADataset) genBridge(rng *rand.Rand, spec QASpec, q int, rel, attr string,
	freshTitle, freshPerson func() string, addDoc func(title, text, source string) string) {
	entity := freshTitle()
	bridge := freshPerson()
	answer := genValue(rng, qaAttrKinds[attr])

	doc1 := addDoc(entity, fmt.Sprintf("%s is a well known work. The %s of %s is %s. Critics praised its pacing.",
		entity, rel, entity, bridge), "wiki")
	// Half of the bridge documents back-reference the work (as encyclopedia
	// pages do), making them reachable from the question by dense retrieval;
	// the other half are only reachable through the bridge entity — the
	// genuinely hard multi-hop cases.
	doc2Text := fmt.Sprintf("%s is a public figure. The %s of %s is %s. Early life details are sparse.",
		bridge, attr, bridge, answer)
	if rng.Intn(2) == 0 {
		doc2Text = fmt.Sprintf("%s is known as the %s of %s. The %s of %s is %s.",
			bridge, rel, entity, attr, bridge, answer)
	}
	doc2 := addDoc(bridge, doc2Text, "wiki")

	support := []string{doc1, doc2}
	for i := 0; i < spec.DistractorsPerQ; i++ {
		dt := freshTitle()
		switch {
		case rng.Float64() >= spec.ConflictRate:
			// Neutral distractor about an unrelated work.
			other := genValue(rng, qaAttrKinds[attr])
			addDoc(dt, fmt.Sprintf("%s covers unrelated material. The %s of %s is %s.",
				dt, attr, dt, other), "wiki")
		case i%2 == 0:
			// Hop-1 poisoning: a forum claims a decoy bridge, and the decoy
			// has its own attribute document — a complete wrong branch.
			decoy := freshPerson()
			decoyValue := genValue(rng, qaAttrKinds[attr])
			addDoc(dt, fmt.Sprintf("According to %s, the %s of %s is %s.",
				dt, rel, entity, decoy), "forum-"+dt)
			addDoc(decoy, fmt.Sprintf("%s is discussed online. The %s of %s is %s.",
				decoy, attr, decoy, decoyValue), "forum-"+dt)
		default:
			// Hop-2 poisoning: a forum contradicts the bridge's attribute.
			wrong := genValue(rng, qaAttrKinds[attr])
			addDoc(dt, fmt.Sprintf("According to %s, the %s of %s is %s. This claim is widely circulated.",
				dt, attr, bridge, wrong), "forum-"+dt)
		}
	}
	d.Questions = append(d.Questions, QAQuestion{
		ID:       fmt.Sprintf("%s-q%03d", spec.Name, q),
		Text:     fmt.Sprintf("What is the %s of the %s of %s?", attr, rel, entity),
		Type:     "bridge",
		Answer:   []string{answer},
		Support:  support,
		HopChain: []string{entity, bridge},
	})
}

// genComparison emits a comparison question over two entities' attributes.
func (d *QADataset) genComparison(rng *rand.Rand, spec QASpec, q int, attr string,
	freshTitle func() string, addDoc func(title, text, source string) string) {
	e1 := freshTitle()
	e2 := freshTitle()
	same := rng.Float64() < 0.5
	v1 := genValue(rng, qaAttrKinds[attr])
	v2 := v1
	if !same {
		for normName(v2) == normName(v1) {
			v2 = genValue(rng, qaAttrKinds[attr])
		}
	}
	doc1 := addDoc(e1, fmt.Sprintf("%s attracted attention on release. The %s of %s is %s.", e1, attr, e1, v1), "wiki")
	doc2 := addDoc(e2, fmt.Sprintf("%s had a quieter reception. The %s of %s is %s.", e2, attr, e2, v2), "wiki")
	for i := 0; i < spec.DistractorsPerQ; i++ {
		dt := freshTitle()
		if rng.Float64() < spec.ConflictRate {
			wrong := genValue(rng, qaAttrKinds[attr])
			addDoc(dt, fmt.Sprintf("According to %s, the %s of %s is %s.", dt, attr, e1, wrong), "forum-"+dt)
		} else {
			addDoc(dt, fmt.Sprintf("%s is another work entirely. The %s of %s is %s.",
				dt, attr, dt, genValue(rng, qaAttrKinds[attr])), "wiki")
		}
	}
	ans := "no"
	if same {
		ans = "yes"
	}
	d.Questions = append(d.Questions, QAQuestion{
		ID:       fmt.Sprintf("%s-q%03d", spec.Name, q),
		Text:     fmt.Sprintf("Do %s and %s have the same %s?", e1, e2, attr),
		Type:     "comparison",
		Answer:   []string{ans},
		Support:  []string{doc1, doc2},
		HopChain: []string{e1, e2},
	})
}
