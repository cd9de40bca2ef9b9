package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pathcomplete/internal/connector"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"
)

// TestEdgeSetOps exercises the bitmap: growth across word boundaries,
// membership, union, intersection, cardinality, enumeration, and the
// hex wire form.
func TestEdgeSetOps(t *testing.T) {
	var es EdgeSet // zero value is empty
	if es.Count() != 0 || es.Has(0) || len(es.IDs()) != 0 {
		t.Fatalf("zero EdgeSet not empty: %v", es)
	}
	if es.Hex() != "0" {
		t.Fatalf("empty Hex = %q, want \"0\"", es.Hex())
	}
	for _, id := range []schema.RelID{0, 3, 63, 64, 130} {
		es.Add(id)
	}
	es.Add(3) // idempotent
	if got := es.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	want := []schema.RelID{0, 3, 63, 64, 130}
	if got := es.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for _, id := range want {
		if !es.Has(id) {
			t.Errorf("Has(%d) = false after Add", id)
		}
	}
	for _, id := range []schema.RelID{1, 62, 65, 129, 131, 1000} {
		if es.Has(id) {
			t.Errorf("Has(%d) = true, never added", id)
		}
	}
	// Three words: bits 0,3,63 → word0, bit 64 → word1, bit 130 → word2.
	if got := es.Hex(); got != "8000000000000009"+"0000000000000001"+"0000000000000004" {
		t.Fatalf("Hex = %q", got)
	}

	other := NewEdgeSet(1)
	other.Add(1)
	if es.Intersects(other) || other.Intersects(es) {
		t.Fatal("disjoint sets intersect")
	}
	other.Add(64)
	if !es.Intersects(other) || !other.Intersects(es) {
		t.Fatal("sets sharing edge 64 do not intersect")
	}

	small := NewEdgeSet(2)
	small.Add(1)
	small.Union(es) // must grow to cover bit 130
	if small.Count() != 6 || !small.Has(130) || !small.Has(1) {
		t.Fatalf("Union result wrong: IDs = %v", small.IDs())
	}
}

// TestExplainReplay is the provenance contract of the explain API:
// every ExplainStep row is a CON-table record — PrevConn is the
// composed connector before the edge, EdgeConn the edge's own
// connector, Conn the row's output — and folding label.Con over the
// reported edges reproduces exactly the label the search ranked.
func TestExplainReplay(t *testing.T) {
	s := uni.New()
	queries := []string{"ta~name", "ta~course", "university~professor~teach", "university~ssn"}
	for _, q := range queries {
		opts := Exact()
		opts.E = 2
		res, err := New(s, opts).Complete(pathexpr.MustParse(q))
		if err != nil {
			t.Fatalf("%s: Complete: %v", q, err)
		}
		if len(res.Completions) == 0 {
			t.Fatalf("%s: no completions", q)
		}
		for _, c := range res.Completions {
			steps := ExplainPath(c.Path)
			if len(steps) != len(c.Path.Rels) {
				t.Fatalf("%s %s: %d steps for %d edges", q, c.Path, len(steps), len(c.Path.Rels))
			}
			running := label.Identity()
			for i, st := range steps {
				if st.Rel != c.Path.Rels[i] {
					t.Fatalf("%s %s: step %d reports rel %d, path has %d", q, c.Path, i, st.Rel, c.Path.Rels[i])
				}
				rel := s.Rel(st.Rel)
				if st.EdgeConn != rel.Conn.String() {
					t.Errorf("%s %s: step %d EdgeConn = %q, edge connector is %q", q, c.Path, i, st.EdgeConn, rel.Conn)
				}
				if st.From != s.Class(rel.From).Name || st.To != s.Class(rel.To).Name {
					t.Errorf("%s %s: step %d endpoints %s→%s, edge is %s→%s",
						q, c.Path, i, st.From, st.To, s.Class(rel.From).Name, s.Class(rel.To).Name)
				}
				if st.PrevConn != running.Conn().String() {
					t.Errorf("%s %s: step %d PrevConn = %q, composed prefix is %q", q, c.Path, i, st.PrevConn, running.Conn())
				}
				running = label.Con(running, label.MustEdge(rel.Conn))
				if st.Conn != running.Conn().String() || st.SemLen != running.SemLen() {
					t.Errorf("%s %s: step %d running label (%s, %d), want (%s, %d)",
						q, c.Path, i, st.Conn, st.SemLen, running.Conn(), running.SemLen())
				}
			}
			if running.Key() != c.Label.Key() {
				t.Errorf("%s %s: replayed label %s, ranked label %s", q, c.Path, running, c.Label)
			}
		}
	}
}

// TestCompleteExpressionSupport: already-complete expressions carry
// their own edge set as Support.
func TestCompleteExpressionSupport(t *testing.T) {
	s := uni.New()
	res, err := New(s, Exact()).Complete(pathexpr.MustParse("ta@>grad@>student@>person.name"))
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if len(res.Completions) != 1 {
		t.Fatalf("completions = %v", res.Strings())
	}
	if res.Support == nil {
		t.Fatal("complete expression has nil Support")
	}
	want := EdgesOf(s, res.Completions[0].Path.Rels)
	if !reflect.DeepEqual(res.Support, want) {
		t.Fatalf("Support = %v, want %v", res.Support.IDs(), want.IDs())
	}
}

// rebuildWithout re-declares s minus the relationship pairs whose
// forward RelID is in skip. Classes are declared in the original
// order, so class IDs (and thus rendered answers) are comparable
// across the two schemas.
func rebuildWithout(t *testing.T, s *schema.Schema, skip map[schema.RelID]bool) *schema.Schema {
	t.Helper()
	b := schema.NewBuilder(s.Name())
	for _, c := range s.Classes() {
		if !c.Primitive {
			b.Class(c.Name)
		}
	}
	for _, r := range s.Rels() {
		if r.Inv != schema.NoRel && r.Inv < r.ID {
			continue // inverse half of an already-declared pair
		}
		if skip[r.ID] {
			continue
		}
		from := s.Class(r.From).Name
		to := s.Class(r.To).Name
		switch {
		case r.Conn == connector.CIsa:
			b.Isa(from, to)
		case r.Conn == connector.CHasPart:
			b.HasPart(from, to, r.Name, s.Rel(r.Inv).Name)
		case s.Class(r.To).Primitive:
			b.Attr(from, r.Name, to)
		default:
			b.Assoc(from, to, r.Name, s.Rel(r.Inv).Name)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("rebuildWithout: %v", err)
	}
	return out
}

// TestSupportRemovalInvariance is the soundness property the closure
// layer's edge-granular reuse stands on: removing any relationship
// pair disjoint from a result's Support leaves the answer — the
// rendered completions and the optimal label set — unchanged. Removal
// never adds candidate paths, every surviving witness (including
// every preemptor and every more-specific competitor, which are
// themselves optimal-label witnesses) is covered by Support, so the
// filtered answer cannot move.
func TestSupportRemovalInvariance(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		s := randSchema(t, seed)
		r := rand.New(rand.NewSource(seed * 911))
		for _, root := range s.Classes() {
			if root.Primitive {
				continue
			}
			for _, anchor := range anchors(s, r) {
				e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
				res, err := New(s, Exact()).Complete(e)
				if err != nil || len(res.Completions) == 0 || res.Truncated || res.Aborted {
					continue
				}
				tried := 0
				for _, rel := range s.Rels() {
					if rel.Inv == schema.NoRel || rel.Inv < rel.ID {
						continue
					}
					if res.Support.Has(rel.ID) || res.Support.Has(rel.Inv) {
						continue
					}
					next := rebuildWithout(t, s, map[schema.RelID]bool{rel.ID: true})
					after, err := New(next, Exact()).Complete(e)
					if err != nil {
						t.Fatalf("seed %d %v minus %s.%s: Complete: %v",
							seed, e, s.Class(rel.From).Name, rel.Name, err)
					}
					if !reflect.DeepEqual(after.Strings(), res.Strings()) {
						t.Fatalf("seed %d %v: removing non-support edge %s.%s changed the answer:\n before: %v\n after:  %v",
							seed, e, s.Class(rel.From).Name, rel.Name, res.Strings(), after.Strings())
					}
					if !reflect.DeepEqual(after.Best, res.Best) {
						t.Fatalf("seed %d %v: removing non-support edge %s.%s changed Best: %v vs %v",
							seed, e, s.Class(rel.From).Name, rel.Name, res.Best, after.Best)
					}
					if tried++; tried >= 4 {
						break
					}
				}
			}
		}
	}
}
