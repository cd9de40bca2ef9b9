package core

import (
	"math/rand"
	"slices"
	"testing"

	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// newTestBuilder returns a fresh schema builder for ad-hoc test
// schemas.
func newTestBuilder() *schema.Builder { return schema.NewBuilder("test") }

// TestResultInvariants checks, on random schemas and every engine
// preset, the structural invariants any Result must satisfy:
//
//  1. every completion is consistent with the query and acyclic;
//  2. every completion's stored label equals the label recomputed from
//     its edges;
//  3. no completion's label is dominated by another completion's label
//     beyond the AGG* window;
//  4. the result is sorted by (semantic length, connector, text);
//  5. Exprs/Strings agree with Completions;
//  6. completions are pairwise distinct.
func TestResultInvariants(t *testing.T) {
	presets := []struct {
		name string
		opts Options
	}{
		{"paper", Paper()},
		{"safe", Safe()},
		{"exact", Exact()},
	}
	for seed := int64(300); seed < 320; seed++ {
		s := randSchema(t, seed)
		r := rand.New(rand.NewSource(seed))
		for _, root := range s.Classes() {
			if root.Primitive {
				continue
			}
			for _, anchor := range anchors(s, r) {
				e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
				for _, p := range presets {
					opts := p.opts
					opts.E = 1 + int(seed)%3
					res, err := New(s, opts).Complete(e)
					if err != nil {
						continue
					}
					checkInvariants(t, p.name, e, opts, res)
				}
			}
		}
	}
}

func checkInvariants(t *testing.T, preset string, e pathexpr.Expr, opts Options, res *Result) {
	t.Helper()
	seen := make(map[string]bool)
	var keys []label.Key
	for _, c := range res.Completions {
		if !c.Path.ConsistentWith(e) {
			t.Errorf("%s %v: inconsistent completion %v", preset, e, c.Path)
		}
		if !c.Path.Acyclic() {
			t.Errorf("%s %v: cyclic completion %v", preset, e, c.Path)
		}
		if got := c.Path.Label(); got.Key() != c.Label.Key() {
			t.Errorf("%s %v: stored label %v != recomputed %v for %v", preset, e, c.Label, got, c.Path)
		}
		if seen[c.Path.String()] {
			t.Errorf("%s %v: duplicate completion %v", preset, e, c.Path)
		}
		seen[c.Path.String()] = true
		keys = append(keys, c.Label.Key())
	}
	// AGG*-closedness: every returned key survives reduction of the
	// returned key set.
	reduced := label.AggStar(keys, opts.e())
	for _, k := range keys {
		if !slices.Contains(reduced, k) {
			t.Errorf("%s %v: returned label %v does not survive AGG* over the result", preset, e, k)
		}
	}
	// Sortedness.
	for i := 1; i < len(res.Completions); i++ {
		a, b := res.Completions[i-1], res.Completions[i]
		ka, kb := a.Label.Key(), b.Label.Key()
		switch {
		case ka.SemLen < kb.SemLen:
		case ka.SemLen > kb.SemLen:
			t.Errorf("%s %v: not sorted by semlen at %d", preset, e, i)
		case ka.Conn.String() < kb.Conn.String():
		case ka.Conn.String() > kb.Conn.String():
			t.Errorf("%s %v: not sorted by connector at %d", preset, e, i)
		case a.Path.String() >= b.Path.String():
			t.Errorf("%s %v: not sorted by text at %d", preset, e, i)
		}
	}
	// Accessors agree.
	es, ss := res.Exprs(), res.Strings()
	if len(es) != len(res.Completions) || len(ss) != len(res.Completions) {
		t.Fatalf("%s %v: accessor lengths differ", preset, e)
	}
	for i := range es {
		if es[i].String() != ss[i] || ss[i] != res.Completions[i].Path.String() {
			t.Errorf("%s %v: accessor mismatch at %d", preset, e, i)
		}
	}
}

// TestUnreachableAnchor: an anchor that exists in the schema but is
// unreachable from the root yields an empty result, not an error.
func TestUnreachableAnchor(t *testing.T) {
	b := newTestBuilder()
	b.Assoc("island_a", "island_b", "bridge", "egdirb")
	b.Attr("mainland", "treasure", "C")
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, opts := range []Options{Paper(), Safe(), Exact()} {
		res, err := New(s, opts).Complete(pathexpr.MustParse("island_a~treasure"))
		if err != nil {
			t.Fatalf("Complete: %v", err)
		}
		if len(res.Completions) != 0 {
			t.Errorf("unreachable anchor produced %v", res.Strings())
		}
	}
	// The naive enumerator agrees.
	res, err := NaiveComplete(s, pathexpr.MustParse("island_a~treasure"), Exact(), 0)
	if err != nil {
		t.Fatalf("NaiveComplete: %v", err)
	}
	if len(res.Completions) != 0 || res.Stats.Enumerated != 0 {
		t.Errorf("naive found %v (%d consistent)", res.Strings(), res.Stats.Enumerated)
	}
}
