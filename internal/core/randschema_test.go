package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathcomplete/internal/schema"
)

// randSchema builds a small random but valid schema: an acyclic Isa
// forest plus random Has-Part and association edges and a few shared
// attribute names. Deterministic in the seed.
func randSchema(t testing.TB, seed int64) *schema.Schema {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n := 5 + r.Intn(8)
	b := schema.NewBuilder(fmt.Sprintf("rand-%d", seed))
	name := func(i int) string { return fmt.Sprintf("c%02d", i) }
	for i := 0; i < n; i++ {
		b.Class(name(i))
	}
	// Isa edges only from higher to lower index: acyclic by
	// construction. Deduplicate pairs so default names stay unique.
	type pair struct{ a, b int }
	isa := map[pair]bool{}
	for k := 0; k < n/2; k++ {
		i := 1 + r.Intn(n-1)
		j := r.Intn(i)
		if isa[pair{i, j}] {
			continue
		}
		isa[pair{i, j}] = true
		b.Isa(name(i), name(j))
	}
	// Structural and association edges with globally unique names.
	edges := n + r.Intn(2*n)
	for k := 0; k < edges; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		if r.Intn(2) == 0 {
			b.HasPart(name(i), name(j), fmt.Sprintf("hp%d", k), fmt.Sprintf("po%d", k))
		} else {
			b.Assoc(name(i), name(j), fmt.Sprintf("as%d", k), fmt.Sprintf("sa%d", k))
		}
	}
	// Shared attribute names to create interesting anchors.
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			b.Attr(name(i), "label", "C")
		}
		if r.Intn(4) == 0 {
			b.Attr(name(i), "size", "I")
		}
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("seed %d: Build: %v", seed, err)
	}
	return s
}

// anchors returns interesting gap anchors for a schema, sorted:
// shared attribute names, a few relationship names, and a few class
// names.
func anchors(s *schema.Schema, r *rand.Rand) []string {
	out := []string{"label", "size"}
	rels := s.Rels()
	for k := 0; k < 4 && len(rels) > 0; k++ {
		out = append(out, rels[r.Intn(len(rels))].Name)
	}
	cs := s.Classes()
	for k := 0; k < 3; k++ {
		if c := cs[r.Intn(len(cs))]; !c.Primitive {
			out = append(out, c.Name)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
