package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomChaosQueries generates a seeded random workload over the full query
// grammar — lookups, nested lookups, comparisons, fallbacks — mixing known
// and unknown entities/relations so found, not-found and multi-truth paths
// all appear.
func randomChaosQueries(rng *rand.Rand, n int) []string {
	entities := []string{"CA981", "MU588", "MU551", "PEK", "Typhoon", "Nobody"}
	relations := []string{"status", "delay reason", "gate", "origin", "altitude"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = fmt.Sprintf("What is the %s of %s?", pick(relations), pick(entities))
		case 1:
			out[i] = fmt.Sprintf("What is the %s of the %s of %s?",
				pick(relations), pick(relations), pick(entities))
		case 2:
			out[i] = fmt.Sprintf("Do %s and %s have the same %s?",
				pick(entities), pick(entities), pick(relations))
		default:
			out[i] = fmt.Sprintf("Anything new about %s today", pick(entities))
		}
	}
	return out
}

// TestQueryCtxBitIdentical is the determinism pin of the cancellation work:
// on identically built systems, every query answered through QueryEach under
// a live (never-canceled, never-expiring) context, or under a nil one, must be
// deeply equal to Query's answer — the ctx plumbing may only ever change
// behaviour when the context actually ends.
func TestQueryCtxBitIdentical(t *testing.T) {
	ref := newCaseStudySystem(t, Config{})
	withLive := newCaseStudySystem(t, Config{})
	withNil := newCaseStudySystem(t, Config{})
	rng := rand.New(rand.NewSource(7))
	queries := randomChaosQueries(rng, 60)

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, q := range queries {
		a := ref.Query(q)
		b := withLive.QueryEach([]context.Context{live}, []string{q})[0]
		c := withNil.QueryEach(nil, []string{q})[0]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d %q: QueryEach under a live context diverged from Query\n Query:     %+v\n QueryEach: %+v", i, q, a, b)
		}
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("query %d %q: QueryEach with a nil context diverged from Query\n Query:     %+v\n QueryEach: %+v", i, q, a, c)
		}
	}

	// Whole batches on the worker pool: per-request live contexts and nil
	// contexts must agree too.
	ctxs := make([]context.Context, len(queries))
	for i := range ctxs {
		ctxs[i] = live
	}
	a := ref.QueryEach(nil, queries)
	if !reflect.DeepEqual(a, withLive.QueryEach(ctxs, queries)) {
		t.Fatal("batch QueryEach under live contexts diverged from nil contexts")
	}
	if !reflect.DeepEqual(a, withNil.QueryEach(make([]context.Context, len(queries)), queries)) {
		t.Fatal("batch QueryEach with nil entries diverged from a nil slice")
	}
}
