package core_test

import (
	"context"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"
)

// checkRendering asserts that r renders exactly the text of the Expr it
// stands for, and that StringLen, which the closure and memo byte
// estimators price with, is that text's length. Resolved.String writes
// from the schema in one pass instead of going through Expr, and
// pathbench's answer gate renders both of its sides with it, so
// only a test like this one sees the two renderings part.
func checkRendering(t *testing.T, r *pathexpr.Resolved) {
	t.Helper()
	got := r.String()
	if want := r.Expr().String(); got != want {
		t.Errorf("Resolved.String() = %q, Expr().String() = %q", got, want)
	}
	if n := r.StringLen(); n != len(got) {
		t.Errorf("StringLen() = %d, len(%q) = %d", n, got, len(got))
	}
}

// sweepRendering checks every completion of every cell of an all-pairs
// gap sweep of s under opts and returns how many it checked.
func sweepRendering(t *testing.T, s *schema.Schema, opts core.Options) int {
	t.Helper()
	cmp := core.New(s, opts)
	n := 0
	for _, anchor := range core.GapAnchors(s) {
		err := cmp.AllPairsGap(context.Background(), anchor, nil, func(_ schema.ClassID, res *core.Result) {
			for _, c := range res.Completions {
				checkRendering(t, c.Path)
				n++
			}
		})
		if err != nil {
			t.Fatalf("AllPairsGap(%q): %v", anchor, err)
		}
	}
	return n
}

func TestResolvedRendering(t *testing.T) {
	t.Run("university", func(t *testing.T) {
		s := uni.New()
		// Complete expressions on the Figure 2 schema round-trip
		// through Resolve.
		for _, src := range []string{
			"student.take.teacher",
			"ta@>grad@>student@>person.name",
			"ta@>instructor@>teacher@>employee@>person.name",
			"university$>department<$university",
		} {
			r, err := pathexpr.Resolve(s, pathexpr.MustParse(src))
			if err != nil {
				t.Fatalf("Resolve(%q): %v", src, err)
			}
			checkRendering(t, r)
			if got := r.String(); got != src {
				t.Errorf("Resolve(%q).String() = %q", src, got)
			}
		}
		if n := sweepRendering(t, s, core.Exact()); n == 0 {
			t.Fatal("the university sweep checked no completion")
		}
	})
	t.Run("cupid32", func(t *testing.T) {
		w, err := cupid.Generate(cupid.Config{Seed: 1994, Classes: 32, RelPairs: 64, Hubs: 2, HubFanout: 4})
		if err != nil {
			t.Fatal(err)
		}
		n := sweepRendering(t, w.Schema, core.Paper())
		if n == 0 {
			t.Fatal("the cupid32 sweep checked no completion")
		}
		t.Logf("cupid32: %d completions checked", n)
	})
}
