package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"
)

// reachNaiveCalls bounds the naive cross-check of an answered query: the
// naive enumerator walks every simple path of the product space when
// nothing completes, which is what the exact engine's traversal counts
// in Stats.Calls. Answered queries whose exact traversal exceeds this
// are not enumerated.
const reachNaiveCalls = 20_000

// checkReach answers e through the dispatch and through the engine
// with the reachability check bypassed. Where the check answers, the
// two Results must be equal with Stats left aside, and the dispatch's
// Stats must be zero; the naive enumerator, where the exact probe says
// its walk stays within reachNaiveCalls, must find no completion too.
// It reports whether the check answered.
func checkReach(t *testing.T, tag string, cmp, probe *core.Completer, e pathexpr.Expr, classGaps map[int]bool) bool {
	t.Helper()
	checked, searched, answered, err := core.SearchBothWays(context.Background(), cmp, e, classGaps)
	if err != nil {
		t.Fatalf("%s %v: %v", tag, e, err)
	}
	if !answered {
		return false
	}
	if checked.Stats != (core.Stats{}) {
		t.Errorf("%s %v: the check answered with Stats %+v, want zero", tag, e, checked.Stats)
	}
	searched.Stats = core.Stats{}
	if !reflect.DeepEqual(checked, searched) {
		t.Errorf("%s %v (class gaps %v): check answered %+v, engine %+v", tag, e, classGaps, checked, searched)
	}
	if len(classGaps) > 0 {
		return true // the naive enumerator has no class-anchored form
	}
	_, exact, _, err := core.SearchBothWays(context.Background(), probe, e, nil)
	if err != nil {
		t.Fatalf("%s %v: %v", tag, e, err)
	}
	if exact.Aborted {
		return true
	}
	naive, err := core.NaiveComplete(cmp.Schema(), e, cmp.Options(), oracleEnumLimit)
	if err != nil {
		t.Fatalf("%s %v: NaiveComplete: %v", tag, e, err)
	}
	if len(naive.Completions) != 0 {
		t.Errorf("%s %v: the check answered empty, NaiveComplete finds %v", tag, e, naive.Strings())
	}
	return true
}

// reachSchema is one schema of the reachability corpus.
type reachSchema struct {
	name  string
	s     *schema.Schema
	cupid bool // a cupid schema: the check must fire on some cell
}

// reachCorpus returns cupid32, the university schema and the first n
// oracle-corpus schemas.
func reachCorpus(t *testing.T, n int64) []reachSchema {
	t.Helper()
	w, err := cupid.Generate(cupid.Config{Seed: 1994, Classes: 32, RelPairs: 64, Hubs: 2, HubFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := []reachSchema{{"cupid32", w.Schema, true}, {"university", uni.New(), false}}
	for i := int64(0); i < n; i++ {
		w, err := cupid.Generate(oracleConfig(i))
		if err != nil {
			t.Fatalf("schema %d: %v", i, err)
		}
		out = append(out, reachSchema{fmt.Sprintf("oracle schema %d", i), w.Schema, true})
	}
	return out
}

// TestReachabilityCheckCells: over every (root, anchor) cell of the
// corpus, wherever the reachability check answers a single-gap query,
// its Result equals the one the engine assembles after a full
// traversal, Stats aside, and the naive enumerator finds nothing. The
// check must fire on every cupid schema: each has attributes, and the
// inverse of an attribute (<class>_of_<attr>, out of a primitive) is an
// anchor no gap can end on.
func TestReachabilityCheckCells(t *testing.T) {
	n, stride := int64(30), 1
	if testing.Short() {
		n, stride = 15, 3
	}
	for _, rs := range reachCorpus(t, n) {
		s := rs.s
		opts := core.Paper()
		if len(s.Classes())%2 == 0 {
			opts = core.Safe()
		}
		cmp := core.New(s, opts)
		probeOpts := core.Exact()
		probeOpts.MaxCalls = reachNaiveCalls
		probe := core.New(s, probeOpts)
		anchors := core.GapAnchors(s)
		fired, cells := 0, 0
		for _, c := range s.Classes() {
			if c.Primitive {
				continue
			}
			for k := int(c.ID) % stride; k < len(anchors); k += stride {
				e := pathexpr.Expr{Root: c.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchors[k]}}}
				cells++
				if checkReach(t, rs.name, cmp, probe, e, nil) {
					fired++
				}
			}
		}
		t.Logf("%s: the check answered %d of %d cells", rs.name, fired, cells)
		if rs.cupid && fired == 0 {
			t.Errorf("%s: the check answered none of %d cells", rs.name, cells)
		}
	}
}

// TestReachabilityCheckPatterns: the same lock over random multi-gap
// patterns with explicit steps, predicates, class-anchored gaps and
// regex constraints, on the compiled index and on the dynamic
// reference, which must agree on whether the check answers.
func TestReachabilityCheckPatterns(t *testing.T) {
	n, perSchema := int64(60), 30
	if testing.Short() {
		n = 15
	}
	fired := 0
	for i, rs := range reachCorpus(t, n) {
		s := rs.s
		r := rand.New(rand.NewSource(int64(i)*7919 + 3))
		cmp := core.New(s, core.Paper())
		ref := core.New(s, core.WithoutIndex(core.Paper()))
		probeOpts := core.Exact()
		probeOpts.MaxCalls = reachNaiveCalls
		probe := core.New(s, probeOpts)
		rels := s.Rels()
		for k := 0; k < perSchema; k++ {
			e, classGaps := randRowPattern(s, r)
			for j := range e.Steps {
				if !e.Steps[j].Gap || r.Intn(3) != 0 {
					continue
				}
				rel := rels[r.Intn(len(rels))]
				switch r.Intn(3) {
				case 0:
					e.Steps[j].Constraint = regexp.QuoteMeta(rel.Name) + `.*`
				case 1:
					e.Steps[j].Constraint = `.*` + regexp.QuoteMeta(rel.Conn.String()+rel.Name)
				default:
					e.Steps[j].Constraint = `zqx9never`
				}
			}
			tag := fmt.Sprintf("%s pattern %d", rs.name, k)
			answered := checkReach(t, tag, cmp, probe, e, classGaps)
			_, _, refAnswered, err := core.SearchBothWays(context.Background(), ref, e, classGaps)
			if err != nil {
				t.Fatalf("%s %v: %v", tag, e, err)
			}
			if refAnswered != answered {
				t.Errorf("%s %v (class gaps %v): the check answers %v on the compiled index, %v on the dynamic reference",
					tag, e, classGaps, answered, refAnswered)
			}
			if answered {
				fired++
			}
		}
	}
	t.Logf("the check answered %d random patterns", fired)
	if fired == 0 {
		t.Error("the check answered none of the random patterns")
	}
}

// TestUnanswerableIgnoresBounds: a query the reachability check answers
// runs no traversal, so no bound can trip. Under an already-canceled
// context and under a one-call budget, ta~person_of_name (the inverse
// of person's name attribute, out of the primitive C) gets the exact
// empty answer: not aborted, no stop reason, zero calls.
func TestUnanswerableIgnoresBounds(t *testing.T) {
	s := uni.New()
	e := pathexpr.MustParse("ta~person_of_name")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	budget := core.Paper()
	budget.MaxCalls = 1
	want, err := core.New(s, core.Paper()).Complete(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ctx  context.Context
		opts core.Options
	}{
		{"canceled", canceled, core.Paper()},
		{"max_calls=1", context.Background(), budget},
	} {
		got, err := core.New(s, tc.opts).CompleteContext(tc.ctx, e)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Aborted || got.StopReason != core.StopNone || got.Stats.Calls != 0 {
			t.Errorf("%s: Aborted=%v StopReason=%q Calls=%d, want the unbounded empty answer",
				tc.name, got.Aborted, got.StopReason, got.Stats.Calls)
		}
		if !reflect.DeepEqual(got, want) || len(got.Completions) != 0 || got.Completions == nil || got.Best == nil {
			t.Errorf("%s: got %+v, want the non-nil empty answer %+v", tc.name, got, want)
		}
	}
}
