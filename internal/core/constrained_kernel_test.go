package core

// Property tests for the annotated (regex-constrained and
// predicate-carrying) search kernel on hand-built cases:
//
//   - universal-constraint degeneracy: ~(.*)~name is bit-for-bit
//     ~name, down to pattern identity (memo hit) and Stats.
//   - predicate pushdown: segment predicates prune exactly the classes
//     whose objects are predicate-false by construction.
//   - a constraint and a predicate on one gap compose, against the
//     naive reference on the university schema.
//
// The annotated queries of the generated corpus, against the naive
// reference and the unconstrained answers, are the differential
// harness's (harness_test.go).

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

func keysSorted(keys []label.Key) []label.Key {
	out := make([]label.Key, len(keys))
	copy(out, keys)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SemLen != out[j].SemLen {
			return out[i].SemLen < out[j].SemLen
		}
		return out[i].Conn.String() < out[j].Conn.String()
	})
	return out
}

// TestUniversalConstraintDegenerate: a constraint whose automaton
// accepts every non-empty fragment is dropped at compile time, so the
// constrained query is bit-for-bit the unconstrained one — same
// answers, same order, same labels, same Stats, and literally the same
// pattern (reflect.DeepEqual), which means the same compiled index
// serves both.
func TestUniversalConstraintDegenerate(t *testing.T) {
	universals := []string{`.*`, `.+`, `(?s).*`, `(.*)`}
	for seed := int64(0); seed < 8; seed++ {
		s := randSchema(t, seed)
		r := rand.New(rand.NewSource(seed*131 + 7))
		cmp := New(s, Safe())
		for _, root := range s.Classes() {
			if root.Primitive {
				continue
			}
			for _, anchor := range anchors(s, r) {
				base := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
				plain, err := cmp.Complete(base)
				if err != nil {
					continue
				}
				for _, re := range universals {
					e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor, Constraint: re}}}
					got, err := cmp.Complete(e)
					if err != nil {
						t.Fatalf("seed %d %v: errored: %v", seed, e, err)
					}
					if !reflect.DeepEqual(view(got), view(plain)) || got.Stats != plain.Stats {
						t.Errorf("seed %d %v: universal constraint changed the answer:\n constrained:   %+v %+v\n unconstrained: %+v %+v",
							seed, e, view(got), got.Stats, view(plain), plain.Stats)
					}
					pb, err1 := compile(s, base)
					pc, err2 := compile(s, e)
					if err1 != nil || err2 != nil {
						t.Fatalf("seed %d: compile: %v %v", seed, err1, err2)
					}
					if !reflect.DeepEqual(pb, pc) {
						t.Errorf("seed %d %v: universal constraint not normalized away from the pattern", seed, e)
					}
				}
			}
		}
	}
}

// TestPredicatePushdown checks the schema-level predicate pruning on
// the university schema, where attribute types are known: a predicate
// that is type-compatible with every end class leaves the answer set
// unchanged, an impossible one empties it, and an attribute predicate
// retargets the gap to the classes that (possibly by inheritance)
// carry the attribute.
func TestPredicatePushdown(t *testing.T) {
	s := uni.New()
	cmp := New(s, Exact())

	plain, err := cmp.Complete(pathexpr.MustParse("ta~name"))
	if err != nil {
		t.Fatalf("ta~name: %v", err)
	}
	// name is a C attribute everywhere: a string self-predicate admits
	// every end class the unconstrained query reaches.
	strOK, err := cmp.Complete(pathexpr.MustParse(`ta~name[self = "x"]`))
	if err != nil {
		t.Fatalf("string pred: %v", err)
	}
	if !reflect.DeepEqual(view(strOK), view(plain)) {
		t.Errorf("compatible self-predicate changed the answer:\n with: %+v\n without: %+v", view(strOK), view(plain))
	}
	// A numeric self-predicate over a C-typed anchor is false by
	// construction at every end class: no completions, empty best set.
	numKO, err := cmp.Complete(pathexpr.MustParse(`ta~name[self > 3]`))
	if err != nil {
		t.Fatalf("numeric pred: %v", err)
	}
	if len(numKO.Completions) != 0 || len(numKO.Best) != 0 {
		t.Errorf("type-incompatible predicate should empty the answer, got %+v", view(numKO))
	}
	// Attribute predicate: course is the only class carrying credits
	// (I), so the gap must end at course.
	courses, err := cmp.Complete(pathexpr.MustParse(`department~course[credits > 3]`))
	if err != nil {
		t.Fatalf("credits pred: %v", err)
	}
	if len(courses.Completions) == 0 {
		t.Fatalf("department~course[credits > 3]: no completions")
	}
	for _, c := range courses.Completions {
		end := s.Class(c.Path.Classes[len(c.Path.Classes)-1]).Name
		if end != "course" {
			t.Errorf("predicate-pruned gap ended at %q, want course: %v", end, c.Path)
		}
	}
	// A string literal against the I-typed credits empties the answer.
	credKO, err := cmp.Complete(pathexpr.MustParse(`department~course[credits = "three"]`))
	if err != nil {
		t.Fatalf("string credits pred: %v", err)
	}
	if len(credKO.Completions) != 0 {
		t.Errorf("type-incompatible attribute predicate should empty the answer, got %+v", view(credKO))
	}
}

// TestPredicateCompleteExpr checks the complete-expression path: a
// predicate on a resolved step is admissibility-checked, returning the
// resolved expression when compatible and an empty result when the end
// class cannot satisfy it.
func TestPredicateCompleteExpr(t *testing.T) {
	s := uni.New()
	cmp := New(s, Paper())
	ok, err := cmp.Complete(pathexpr.MustParse(`ta@>grad@>student@>person.name[self = "Yezdi"]`))
	if err != nil {
		t.Fatalf("complete expr with pred: %v", err)
	}
	if len(ok.Completions) != 1 {
		t.Fatalf("want the resolved expression back, got %+v", view(ok))
	}
	empty, err := cmp.Complete(pathexpr.MustParse(`ta@>grad@>student@>person.name[self > 3]`))
	if err != nil {
		t.Fatalf("incompatible pred: %v", err)
	}
	if len(empty.Completions) != 0 {
		t.Errorf("incompatible predicate on a complete expression should empty the answer, got %+v", view(empty))
	}
}

// TestConstraintAndPredicateCompose runs both annotations on one gap
// and checks against the naive reference — the two filters must
// commute with each other and with the search.
func TestConstraintAndPredicateCompose(t *testing.T) {
	s := uni.New()
	opts := Exact()
	cmp := New(s, opts)
	for _, src := range []string{
		`ta~(grad.*)~name[self = "x"]`,
		`ta~(.*person\.name)~name[self != "y"]`,
		`department~(.*)~course[credits > 3]`,
	} {
		e := pathexpr.MustParse(src)
		got, err := cmp.Complete(e)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		naive, err := NaiveComplete(s, e, opts, 100_000)
		if err != nil {
			t.Fatalf("%s: NaiveComplete: %v", src, err)
		}
		gv, nv := view(got), view(naive)
		gv.Best, nv.Best = keysSorted(gv.Best), keysSorted(nv.Best)
		if !reflect.DeepEqual(gv, nv) {
			t.Errorf("%s:\n compiled: %+v\n naive:    %+v", src, gv, nv)
		}
		for _, c := range got.Completions {
			if !c.Path.ConsistentWith(e) {
				t.Errorf("%s: completion %v inconsistent", src, c.Path)
			}
		}
	}
}

// TestFrontierRejectsAnnotated: sessions complete bare prefixes; a
// frontier over a constrained or predicate-carrying base must refuse
// rather than silently alias cache cells.
func TestFrontierRejectsAnnotated(t *testing.T) {
	s := uni.New()
	cmp := New(s, Paper())
	for _, src := range []string{
		`ta~(grad.*)~name`,
		`ta~name[self = "x"]`,
		`ta.advisee~(x)~name`,
	} {
		e, err := pathexpr.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		if _, err := cmp.NewFrontier(e); err == nil {
			t.Errorf("NewFrontier(%s): expected rejection", src)
		}
	}
	if _, err := cmp.NewFrontier(pathexpr.MustParse("ta~na")); err != nil {
		t.Errorf("plain frontier rejected: %v", err)
	}
}

// TestConstrainedCompileErrors: invalid regex constraints and
// predicates surface as compile errors with the constraint quoted.
func TestConstrainedCompileErrors(t *testing.T) {
	s := uni.New()
	cmp := New(s, Paper())
	for _, e := range []pathexpr.Expr{
		{Root: "ta", Steps: []pathexpr.Step{{Gap: true, Name: "name", Constraint: `(`}}},
		{Root: "ta", Steps: []pathexpr.Step{{Gap: true, Name: "name", Constraint: `\bx`}}},
		{Root: "ta", Steps: []pathexpr.Step{{Gap: true, Name: "name", Pred: `credits >`}}},
	} {
		if _, err := cmp.Complete(e); err == nil {
			t.Errorf("Complete(%+v): expected compile error", e)
		}
	}
}
