package core

import (
	"context"
	"reflect"
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// TestAllPairsGapRootFilter: a filtered sweep calls fn for exactly the
// wanted non-primitive roots, in ascending order, each with the Result
// a fresh Completer's CompleteContext returns for the same query.
func TestAllPairsGapRootFilter(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s := randSchema(t, seed)
		for _, opts := range []Options{Paper(), Exact()} {
			c := New(s, opts)
			fresh := New(s, opts)
			// Odd ClassIDs only: the filter also accepts primitive
			// classes, which the sweep must still skip.
			want := func(root schema.ClassID) bool { return root%2 == 1 }
			for _, anchor := range GapAnchors(s) {
				var got []schema.ClassID
				err := c.AllPairsGap(context.Background(), anchor, want, func(root schema.ClassID, res *Result) {
					got = append(got, root)
					exp, err := fresh.CompleteContext(context.Background(), pathexpr.Expr{
						Root:  s.Class(root).Name,
						Steps: []pathexpr.Step{{Gap: true, Name: anchor}},
					})
					if err != nil {
						t.Fatalf("seed %d: CompleteContext(%s~%s): %v", seed, s.Class(root).Name, anchor, err)
					}
					if !reflect.DeepEqual(res, exp) {
						t.Errorf("seed %d: %s~%s: sweep cell %+v, CompleteContext %+v", seed, s.Class(root).Name, anchor, res, exp)
					}
				})
				if err != nil {
					t.Fatalf("seed %d: AllPairsGap(%q): %v", seed, anchor, err)
				}
				var wantRoots []schema.ClassID
				for _, cls := range s.Classes() {
					if !cls.Primitive && want(cls.ID) {
						wantRoots = append(wantRoots, cls.ID)
					}
				}
				if !reflect.DeepEqual(got, wantRoots) {
					t.Errorf("seed %d: AllPairsGap(%q) visited %v, want %v", seed, anchor, got, wantRoots)
				}
			}
		}
	}
}
