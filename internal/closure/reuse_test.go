package closure_test

// Differential validation of edge-granular reuse: BuildReusing against
// a previous generation must produce, cell for cell, the same answer
// view as a fresh full Build of the new schema — whether the diff
// allows most cells to be carried over (removals disjoint from their
// support), forces spot rebuilds (support hits), or rules reuse out
// wholesale (additions, class changes). Reused cells keep the Stats of
// the search that originally produced them, so all comparisons go
// through view(), never DeepEqual on whole Results.

import (
	"context"
	"reflect"
	"testing"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/connector"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/schema"
)

// rebuildWithout re-declares s minus the relationship pairs whose
// forward RelID is in skip, keeping class declaration order (and thus
// ClassIDs) identical. extra, if non-nil, is applied to the builder
// before Build — the hook the addition tests use.
func rebuildWithout(t *testing.T, s *schema.Schema, skip map[schema.RelID]bool, extra func(*schema.Builder)) *schema.Schema {
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
	if extra != nil {
		extra(b)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("rebuildWithout: %v", err)
	}
	return out
}

// checkAgainstFresh requires the reused index to match a fresh full
// Build of next on the answer view of every cell of the full grid.
func checkAgainstFresh(t *testing.T, tag string, reused *closure.Index, next *schema.Schema, cmp *core.Completer) {
	t.Helper()
	fresh, err := closure.Build(context.Background(), "fresh", reused.Generation(), cmp, nil)
	if err != nil {
		t.Fatalf("%s: fresh Build: %v", tag, err)
	}
	if reused.Cells() != fresh.Cells() || reused.Anchors() != fresh.Anchors() {
		t.Fatalf("%s: grid mismatch: reused %d cells/%d anchors, fresh %d/%d",
			tag, reused.Cells(), reused.Anchors(), fresh.Cells(), fresh.Anchors())
	}
	fresh.Walk(func(anchor string, root schema.ClassID, want *core.Result) {
		got, ok := reused.Lookup(root, anchor)
		if !ok {
			t.Fatalf("%s: cell (%s, %q) missing from reused index", tag, next.Class(root).Name, anchor)
		}
		if gv, wv := view(got), view(want); !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: cell (%s, %q) diverges:\nreused: %+v\nfresh:  %+v",
				tag, next.Class(root).Name, anchor, gv, wv)
		}
		if got.Support == nil {
			t.Fatalf("%s: cell (%s, %q) lost its Support", tag, next.Class(root).Name, anchor)
		}
		if gh, wh := got.Support.Hex(), want.Support.Hex(); gh != wh {
			t.Fatalf("%s: cell (%s, %q) Support %s, fresh build's is %s", tag, next.Class(root).Name, anchor, gh, wh)
		}
	})
}

// reusableCells counts the cells of prev that the diff-free reuse path
// could carry over (present, complete, with a recorded Support).
func reusableCells(prev *closure.Index) int {
	n := 0
	prev.Walk(func(_ string, _ schema.ClassID, res *core.Result) {
		if res.Support != nil && !res.Truncated && !res.Aborted {
			n++
		}
	})
	return n
}

// TestBuildReusingIdentical: reloading a schema with no changes reuses
// every complete cell and still matches a fresh build exactly.
func TestBuildReusingIdentical(t *testing.T) {
	for _, i := range []int64{2, 7, 12} {
		w, err := cupid.Generate(diffConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		prevSchema := w.Schema
		opts := core.Exact()
		opts.E = 1 + int(i)%2
		prev, err := closure.Build(context.Background(), "prev", 1, core.New(prevSchema, opts), nil)
		if err != nil {
			t.Fatalf("schema %d: Build: %v", i, err)
		}
		next := rebuildWithout(t, prevSchema, nil, nil)
		cmp := core.New(next, opts)
		ix, rep, err := closure.BuildReusing(context.Background(), "next", 2, cmp, nil, prev, prevSchema)
		if err != nil {
			t.Fatalf("schema %d: BuildReusing: %v", i, err)
		}
		if !rep.Eligible || rep.Added != 0 || rep.Removed != 0 {
			t.Fatalf("schema %d: report %+v for an unchanged schema", i, rep)
		}
		if want := reusableCells(prev); rep.Reused != want {
			t.Errorf("schema %d: Reused = %d, want %d (every complete cell)", i, rep.Reused, want)
		}
		if rep.Reused == 0 {
			t.Fatalf("schema %d: nothing reused on an identical reload", i)
		}
		if rep.Reused+rep.Rebuilt != ix.Cells() {
			t.Errorf("schema %d: Reused %d + Rebuilt %d != Cells %d", i, rep.Reused, rep.Rebuilt, ix.Cells())
		}
		if ix.ReusedCells() != rep.Reused {
			t.Errorf("schema %d: ReusedCells() = %d, report says %d", i, ix.ReusedCells(), rep.Reused)
		}
		checkAgainstFresh(t, "identical", ix, next, cmp)
	}
}

// TestBuildReusingRemoval: removing one edge pair spot-rebuilds the
// cells whose support it hits, carries the rest over, and the result
// is indistinguishable from a full build of the new schema. Under
// best[u] pruning (the paper and safe presets) Support is not an
// invalidation footprint, so the pass must refuse reuse wholesale and
// still match a fresh build.
func TestBuildReusingRemoval(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for _, preset := range []struct {
		name     string
		opts     core.Options
		eligible bool
	}{
		{"exact", core.Exact(), true},
		{"paper", core.Paper(), false},
		{"safe", core.Safe(), false},
	} {
		t.Run(preset.name, func(t *testing.T) {
			sawReuse, sawRebuild := false, false
			for i := int64(0); i < n; i++ {
				w, err := cupid.Generate(diffConfig(i))
				if err != nil {
					t.Fatal(err)
				}
				prevSchema := w.Schema
				opts := preset.opts
				opts.E = 1 + int(i)%2
				prev, err := closure.Build(context.Background(), "prev", 1, core.New(prevSchema, opts), nil)
				if err != nil {
					t.Fatalf("schema %d: Build: %v", i, err)
				}
				// Remove a forward edge that some cell's support actually
				// uses, so the run exercises both carry-over and spot
				// rebuild.
				hit := schema.NoRel
				prev.Walk(func(_ string, _ schema.ClassID, res *core.Result) {
					if hit != schema.NoRel || res.Support == nil {
						return
					}
					for _, id := range res.Support.IDs() {
						rel := prevSchema.Rel(id)
						if rel.Inv != schema.NoRel && rel.Inv < rel.ID {
							rel = prevSchema.Rel(rel.Inv) // normalize to the declared direction
						}
						hit = rel.ID
						return
					}
				})
				if hit == schema.NoRel {
					continue // degenerate schema with empty supports
				}
				next := rebuildWithout(t, prevSchema, map[schema.RelID]bool{hit: true}, nil)
				cmp := core.New(next, opts)
				ix, rep, err := closure.BuildReusing(context.Background(), "next", 2, cmp, nil, prev, prevSchema)
				if err != nil {
					t.Fatalf("schema %d: BuildReusing: %v", i, err)
				}
				if rep.Eligible != preset.eligible {
					t.Fatalf("schema %d: removal-only diff reported Eligible=%v, want %v: %+v", i, rep.Eligible, preset.eligible, rep)
				}
				if rep.Removed != 2 || rep.Added != 0 {
					t.Fatalf("schema %d: report %+v, want exactly one removed pair", i, rep)
				}
				if !preset.eligible && (rep.Reused != 0 || rep.Rebuilt != ix.Cells()) {
					t.Fatalf("schema %d: ineligible pass reused %d cells, rebuilt %d of %d", i, rep.Reused, rep.Rebuilt, ix.Cells())
				}
				if rep.Rebuilt > 0 {
					sawRebuild = true
				}
				if rep.Reused > 0 {
					sawReuse = true
				}
				checkAgainstFresh(t, "removal", ix, next, cmp)
			}
			if !sawRebuild {
				t.Error("no run spot-rebuilt a support-hit cell — the removal corpus is too weak")
			}
			if preset.eligible && !sawReuse {
				t.Error("no run carried any cell over — the removal corpus is too weak")
			}
		})
	}
}

// TestBuildReusingAddition: one added edge can improve any cell, so
// reuse is ruled out wholesale and the pass degenerates to a full —
// and still correct — build.
func TestBuildReusingAddition(t *testing.T) {
	w, err := cupid.Generate(diffConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	prevSchema := w.Schema
	prev, err := closure.Build(context.Background(), "prev", 1, core.New(prevSchema, core.Exact()), nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := prevSchema.Classes()
	var a, z string
	for _, c := range cs {
		if c.Primitive {
			continue
		}
		if a == "" {
			a = c.Name
		} else if z == "" && c.Name != a {
			z = c.Name
		}
	}
	next := rebuildWithout(t, prevSchema, nil, func(b *schema.Builder) {
		b.Assoc(a, z, "reuse_test_added", "reuse_test_added_inv")
	})
	cmp := core.New(next, core.Exact())
	ix, rep, err := closure.BuildReusing(context.Background(), "next", 2, cmp, nil, prev, prevSchema)
	if err != nil {
		t.Fatalf("BuildReusing: %v", err)
	}
	if rep.Eligible || rep.Reused != 0 {
		t.Fatalf("report %+v: an added edge must disable reuse wholesale", rep)
	}
	if rep.Added != 2 {
		t.Errorf("Added = %d, want the pair", rep.Added)
	}
	if ix.ReusedCells() != 0 {
		t.Errorf("ReusedCells() = %d on a full rebuild", ix.ReusedCells())
	}
	checkAgainstFresh(t, "addition", ix, next, cmp)
}

// TestBuildReusingClassChange: a new class shifts ClassIDs, which are
// baked into every materialized path — reuse must be ruled out.
func TestBuildReusingClassChange(t *testing.T) {
	w, err := cupid.Generate(diffConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	prevSchema := w.Schema
	prev, err := closure.Build(context.Background(), "prev", 1, core.New(prevSchema, core.Exact()), nil)
	if err != nil {
		t.Fatal(err)
	}
	next := rebuildWithout(t, prevSchema, nil, func(b *schema.Builder) {
		b.Class("reuse_test_new_class")
	})
	cmp := core.New(next, core.Exact())
	ix, rep, err := closure.BuildReusing(context.Background(), "next", 2, cmp, nil, prev, prevSchema)
	if err != nil {
		t.Fatalf("BuildReusing: %v", err)
	}
	if rep.Eligible || rep.Reused != 0 {
		t.Fatalf("report %+v: a class change must disable reuse", rep)
	}
	checkAgainstFresh(t, "class-change", ix, next, cmp)
}

// TestBuildReusingNilPrev: no previous index degrades to a plain full
// build with an all-zero report.
func TestBuildReusingNilPrev(t *testing.T) {
	w, err := cupid.Generate(diffConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	cmp := core.New(w.Schema, core.Exact())
	ix, rep, err := closure.BuildReusing(context.Background(), "next", 1, cmp, nil, nil, nil)
	if err != nil {
		t.Fatalf("BuildReusing: %v", err)
	}
	if rep.Eligible || rep.Reused != 0 {
		t.Fatalf("report %+v for a nil prev", rep)
	}
	checkAgainstFresh(t, "nil-prev", ix, w.Schema, cmp)
}

// TestBuildReusingBudget: the Build error contract carries over — a
// budget too small for the grid, whether it runs out at the first
// column or about halfway, fails with ErrBudget and releases the whole
// reservation even when cells were being reused, on one P or on four.
func TestBuildReusingBudget(t *testing.T) {
	prevSchema := cupid32(t)
	prev, err := closure.Build(context.Background(), "prev", 1, core.New(prevSchema, core.Exact()), nil)
	if err != nil {
		t.Fatal(err)
	}
	cmp := dropBusiestEdge(t, prev, prevSchema)
	underProcs(t, func(t *testing.T) {
		for _, max := range []int64{64, prev.Bytes() / 2} {
			b := closure.NewBudget(max)
			failBuild(t, closure.ErrBudget, b, func() (*closure.Index, error) {
				ix, rep, err := closure.BuildReusing(context.Background(), "next", 2, cmp, b, prev, prevSchema)
				if !rep.Eligible {
					t.Errorf("report %+v: the removal-only diff should allow reuse", rep)
				}
				return ix, err
			})
		}
	})
}

// TestBuildReusingCancel: cancellation before the pass or after its
// first column surfaces the context error, returns no index, and leaves
// no reservation or worker behind, on one P or on four.
func TestBuildReusingCancel(t *testing.T) {
	prevSchema := cupid32(t)
	prev, err := closure.Build(context.Background(), "prev", 1, core.New(prevSchema, core.Exact()), nil)
	if err != nil {
		t.Fatal(err)
	}
	cmp := dropBusiestEdge(t, prev, prevSchema)
	underProcs(t, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		b := closure.NewBudget(0)
		failBuild(t, context.Canceled, b, func() (*closure.Index, error) {
			ix, _, err := closure.BuildReusing(ctx, "next", 2, cmp, b, prev, prevSchema)
			return ix, err
		})
		cancelMidBuild(t, b, func(ctx context.Context) (*closure.Index, error) {
			ix, _, err := closure.BuildReusing(ctx, "next", 2, cmp, b, prev, prevSchema)
			return ix, err
		})
	})
}

// dropBusiestEdge re-declares prevSchema without the edge pair that the
// most cells of prev depend on, so a reusing pass over the result both
// carries cells over and searches a large share of them, and returns
// an exact Completer over the new schema.
func dropBusiestEdge(t *testing.T, prev *closure.Index, prevSchema *schema.Schema) *core.Completer {
	t.Helper()
	uses := make(map[schema.RelID]int)
	prev.Walk(func(_ string, _ schema.ClassID, res *core.Result) {
		if res.Support == nil {
			return
		}
		for _, id := range res.Support.IDs() {
			if rel := prevSchema.Rel(id); rel.Inv != schema.NoRel && rel.Inv < rel.ID {
				id = rel.Inv // count both directions against the declared one
			}
			uses[id]++
		}
	})
	busiest := schema.NoRel
	for id, n := range uses {
		if busiest == schema.NoRel || n > uses[busiest] || (n == uses[busiest] && id < busiest) {
			busiest = id
		}
	}
	if busiest == schema.NoRel {
		t.Fatal("no cell of prev records a Support edge")
	}
	return core.New(rebuildWithout(t, prevSchema, map[schema.RelID]bool{busiest: true}, nil), core.Exact())
}
