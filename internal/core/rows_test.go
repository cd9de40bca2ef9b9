package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"
)

// rowPreds mixes predicates that admit some end classes (self on a
// string primitive, the corpus and university attributes) with one
// that rejects every class.
var rowPreds = []string{`self = "x"`, `value > 10`, `name != "a"`, `units <= 2.5`, `no_such_attr = 1`}

// randRowPattern draws an expression of one to three gaps over s, with
// explicit steps between them. Gaps end on relationship names, on class
// names, or (listed in the returned set) on classes in the
// class-anchored form of CompleteToClass; a third of the steps carry a
// predicate.
func randRowPattern(s *schema.Schema, r *rand.Rand) (pathexpr.Expr, map[int]bool) {
	classes, rels := s.Classes(), s.Rels()
	var roots []string
	for _, c := range classes {
		if !c.Primitive {
			roots = append(roots, c.Name)
		}
	}
	e := pathexpr.Expr{Root: roots[r.Intn(len(roots))]}
	classGaps := map[int]bool{}
	pred := func() string {
		if r.Intn(3) == 0 {
			return rowPreds[r.Intn(len(rowPreds))]
		}
		return ""
	}
	for g := 1 + r.Intn(3); g > 0; g-- {
		if len(e.Steps) > 0 && r.Intn(2) == 0 {
			rel := rels[r.Intn(len(rels))]
			e.Steps = append(e.Steps, pathexpr.Step{Conn: rel.Conn, Name: rel.Name, Pred: pred()})
		}
		step := pathexpr.Step{Gap: true, Pred: pred()}
		switch k := r.Intn(5); {
		case k < 2:
			step.Name = rels[r.Intn(len(rels))].Name
		default:
			step.Name = classes[r.Intn(len(classes))].Name
			if k == 4 {
				classGaps[len(e.Steps)] = true
			}
		}
		e.Steps = append(e.Steps, step)
	}
	return e, classGaps
}

// TestCompiledRowsMatchDynamic: at every (class, segment) state, the
// compiled index — the Completer's base table plus the pattern's
// override rows — serves exactly the moves dynTransitions derives, in
// content and order. Random patterns over the oracle-corpus schemas and
// the university schema, each under no exclusion and two non-empty
// Exclude sets.
func TestCompiledRowsMatchDynamic(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	schemas := []*schema.Schema{uni.New()}
	for i := int64(0); i < n; i++ {
		w, err := cupid.Generate(oracleConfig(i))
		if err != nil {
			t.Fatalf("schema %d: %v", i, err)
		}
		schemas = append(schemas, w.Schema)
	}
	for i, s := range schemas {
		r := rand.New(rand.NewSource(int64(i)*7919 + 3))
		var cmps []*core.Completer
		for k := 0; k < 3; k++ {
			opts := core.Paper()
			if k > 0 {
				opts.Exclude = map[schema.ClassID]bool{}
				for j := 0; j < k*2; j++ {
					opts.Exclude[schema.ClassID(r.Intn(s.NumClasses()))] = true
				}
			}
			cmps = append(cmps, core.New(s, opts))
		}
		for q := 0; q < 30; q++ {
			e, classGaps := randRowPattern(s, r)
			for _, cmp := range cmps {
				if err := core.CheckCompiledRows(cmp, e, classGaps); err != nil {
					t.Fatalf("schema %d (%s): %v", i, s.Name(), err)
				}
			}
		}
	}
}

// TestCompiledRowsConcurrent compiles on one fresh Completer over a
// fresh schema from 8 goroutines at once, so the race detector covers
// both tables built on first use: the Completer's base table and the
// schema's name index.
func TestCompiledRowsConcurrent(t *testing.T) {
	s := uni.New()
	opts := core.Paper()
	opts.Exclude = map[schema.ClassID]bool{s.MustClass("employee").ID: true}
	cmp := core.New(s, opts)
	exprs := []string{"ta~name", "student~course", "department~(.*)~name", "ta~student.name", "person~ssn[self > 3]"}
	start := make(chan struct{})
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[g] = core.CheckCompiledRows(cmp, pathexpr.MustParse(exprs[g%len(exprs)]), nil)
		}()
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
