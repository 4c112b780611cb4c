// Package workload generates the benchmark's inputs: the fixed base corpus,
// the gold-bearing query pools and the delta-shard ingest stream. Everything
// is a pure function of (seed, scale); the server under test only ever sees
// the generated files and requests.
//
// Stable-surface rule: this package and the gating runner import nothing
// from multirag/internal except datasets and eval (and serve, in harness),
// so internal API churn cannot break the gating run.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"multirag"
	"multirag/internal/datasets"
)

// Scale 1 is the paper's six datasets at twice their preset size.
const presetFactor = 2

// Kinds of gold-bearing graph query, each a quarter of the query-graph mix.
const (
	KindLookup     = "lookup"
	KindCompare    = "compare"
	KindBridge     = "bridge"
	KindQACompare  = "qa-compare"
	KindFallback   = "fallback"
	fallbackPerEnt = 3
	// fallbackPoolMax is 4x the engine's query-embedding cache (4,096
	// entries), so a Zipf head hits the cache and the tail misses.
	fallbackPoolMax = 16384
)

// GoldQuery is one query whose served Values can be scored against Gold.
type GoldQuery struct {
	Kind string
	Text string
	Gold []string
}

// Corpus is everything one workload run needs, generated from one seed.
type Corpus struct {
	Seed  uint64
	Scale float64
	// Files is the base corpus, loaded with one bulk IngestFiles at set-up.
	Files []multirag.File
	// FileBytes is the total content size of Files.
	FileBytes int64
	// Graph holds the gold-bearing pools by kind, each seeded-shuffled.
	Graph map[string][]GoldQuery
	// Fallback is the free-text pool the query grammar cannot parse.
	Fallback []string
}

func scaled(n int, scale float64) int {
	v := int(math.Round(float64(n) * presetFactor * scale))
	if v < 4 {
		v = 4
	}
	return v
}

// Generate builds the base corpus and the query pools.
func Generate(seed uint64, scale float64) (*Corpus, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale must be positive, got %v", scale)
	}
	c := &Corpus{Seed: seed, Scale: scale, Graph: map[string][]GoldQuery{}}
	var entities []string
	seen := map[string]bool{}
	addEntity := func(name string) {
		if k := strings.ToLower(name); !seen[k] {
			seen[k] = true
			entities = append(entities, name)
		}
	}

	for _, spec := range datasets.AllPresets(seed) {
		spec.Entities = scaled(spec.Entities, scale)
		spec.Queries = scaled(spec.Queries, scale)
		d, err := datasets.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		for _, f := range d.Files {
			c.addFile(multirag.File{Domain: f.Domain, Source: f.Source, Name: f.Name,
				Format: f.Format, Meta: f.Meta, Content: f.Content})
		}
		byAttr := map[string][]datasets.Query{}
		for _, q := range d.Queries {
			c.Graph[KindLookup] = append(c.Graph[KindLookup], GoldQuery{Kind: KindLookup, Text: q.Text, Gold: q.Gold})
			byAttr[q.Attribute] = append(byAttr[q.Attribute], q)
			addEntity(q.Entity)
		}
		// One comparison per lookup: pair it with the next lookup of the
		// same attribute, so both arms reuse (entity, relation) keys the
		// lookups already touch.
		attrs := make([]string, 0, len(byAttr))
		for a := range byAttr {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			qs := byAttr[a]
			if len(qs) < 2 {
				continue
			}
			for i, q := range qs {
				o := qs[(i+1)%len(qs)]
				c.Graph[KindCompare] = append(c.Graph[KindCompare], GoldQuery{
					Kind: KindCompare,
					Text: fmt.Sprintf("Do %s and %s have the same %s?", q.Entity, o.Entity, strings.ReplaceAll(a, "_", " ")),
					Gold: []string{sameGold(q.Gold, o.Gold)},
				})
			}
		}
		for _, cl := range d.Claims {
			addEntity(cl.Entity)
		}
	}

	for _, spec := range []datasets.QASpec{datasets.Hotpot(seed), datasets.TwoWiki(seed)} {
		spec.Questions = scaled(spec.Questions, scale)
		qa := datasets.GenerateQA(spec)
		for _, doc := range qa.Docs {
			c.addFile(docFile(doc))
			addEntity(doc.Title)
		}
		for _, q := range qa.Questions {
			kind := KindBridge
			if q.Type == "comparison" {
				kind = KindQACompare
			}
			c.Graph[kind] = append(c.Graph[kind], GoldQuery{Kind: kind, Text: q.Text, Gold: q.Answer})
		}
	}

	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	for _, k := range GraphKinds() {
		pool := c.Graph[k]
		if len(pool) == 0 {
			return nil, fmt.Errorf("workload: empty %s pool at scale %v", k, scale)
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}

	templates := [fallbackPerEnt]string{
		"Anything interesting regarding %s lately",
		"Tell me something about %s please",
		"Any recent news concerning %s",
	}
	limit := int(math.Round(fallbackPoolMax * scale))
	for _, t := range templates {
		for _, e := range entities {
			if len(c.Fallback) < limit {
				c.Fallback = append(c.Fallback, fmt.Sprintf(t, e))
			}
		}
	}
	return c, nil
}

// GraphKinds lists the graph-query kinds in mix order.
func GraphKinds() []string {
	return []string{KindLookup, KindCompare, KindBridge, KindQACompare}
}

func (c *Corpus) addFile(f multirag.File) {
	c.Files = append(c.Files, f)
	c.FileBytes += int64(len(f.Content))
}

// docFile renders a QA corpus document as one text file, as the paper tables
// do (internal/bench qaFiles).
func docFile(doc datasets.Doc) multirag.File {
	return multirag.File{Domain: "wiki", Source: doc.Source, Name: doc.ID, Format: "text", Content: []byte(doc.Text)}
}

// sameGold is the gold answer of a two-entity comparison: "yes" when the two
// gold value sets share a value, as the engine's comparison intent decides.
func sameGold(a, b []string) string {
	set := map[string]bool{}
	for _, v := range a {
		set[strings.ToLower(v)] = true
	}
	for _, v := range b {
		if set[strings.ToLower(v)] {
			return "yes"
		}
	}
	return "no"
}
