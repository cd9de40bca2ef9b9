package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
)

// This file property-tests the compiled search kernel against its
// reference engines over randomized schemas:
//
//   - compiled vs pre-compilation (noCompile) — must agree exactly, in
//     answers, order, best set, AND traversal statistics, in every
//     mode: the compiled index is a pure representation change.
//   - compiled vs naive enumeration in exact mode — inherited from
//     equiv_test.go, re-checked here through the pooled warm path.
//   - one Completer shared by concurrent goroutines — the same answers
//     as one at a time.
//
// The suite runs under -race in CI, which also exercises the engine
// pool and the base table for data races.

// modesUnderTest returns the option sets the kernel comparison sweeps.
func modesUnderTest(seed int64) []Options {
	paper, safe, exact := Paper(), Safe(), Exact()
	paper.E = 1 + int(seed)%3
	safe.E = 1 + int(seed+1)%3
	exact.E = 1 + int(seed+2)%3
	exact.NoPreemption = seed%2 == 0
	safe.PreferSpecific = seed%3 == 0
	off := Options{E: 1, Caution: CautionOff}
	noEarly := Exact()
	noEarly.NoEarlyTarget = true
	return []Options{paper, safe, exact, off, noEarly}
}

// resultView is the externally observable outcome of a search, for
// exact comparison between engines.
type resultView struct {
	Completions []string
	Labels      []string
	Best        []label.Key
	Truncated   bool
	Aborted     bool
}

func view(r *Result) resultView {
	labels := make([]string, len(r.Completions))
	for i, c := range r.Completions {
		labels[i] = c.Label.String()
	}
	return resultView{
		Completions: r.Strings(),
		Labels:      labels,
		Best:        r.Best,
		Truncated:   r.Truncated,
		Aborted:     r.Aborted,
	}
}

// TestCompiledMatchesDynamic drives the compiled kernel and the
// pre-compilation engine over the same random queries and requires
// identical results and identical traversal statistics. Each query
// runs twice against the same Completer so the second pass exercises
// the warm pooled engine and the memoized index.
func TestCompiledMatchesDynamic(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		s := randSchema(t, seed)
		r := rand.New(rand.NewSource(seed * 9349))
		for _, opts := range modesUnderTest(seed) {
			dynOpts := opts
			dynOpts.noCompile = true
			cmp, dyn := New(s, opts), New(s, dynOpts)
			for _, root := range s.Classes() {
				if root.Primitive {
					continue
				}
				for _, anchor := range anchors(s, r) {
					e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
					got, err := cmp.Complete(e)
					if err != nil {
						continue // anchor absent from this schema
					}
					want, err := dyn.Complete(e)
					if err != nil {
						t.Fatalf("seed %d %v: dynamic engine errored where compiled did not: %v", seed, e, err)
					}
					if !reflect.DeepEqual(view(got), view(want)) {
						t.Errorf("seed %d %v %+v:\n compiled: %+v\n dynamic:  %+v", seed, e, opts, view(got), view(want))
					}
					if got.Stats != want.Stats {
						t.Errorf("seed %d %v: traversal stats diverged:\n compiled: %+v\n dynamic:  %+v",
							seed, e, got.Stats, want.Stats)
					}
					// Warm pass: pooled engine, memoized index.
					warm, err := cmp.Complete(e)
					if err != nil {
						t.Fatalf("seed %d %v: warm pass errored: %v", seed, e, err)
					}
					if !reflect.DeepEqual(view(got), view(warm)) || got.Stats != warm.Stats {
						t.Errorf("seed %d %v: warm pass diverged from cold:\n cold: %+v\n warm: %+v",
							seed, e, view(got), view(warm))
					}
				}
			}
		}
	}
}

// TestConcurrentCompleter hammers one Completer from many goroutines on
// the same query mix; under -race this checks the engine pool and the
// base table for races, and the results for cross-query contamination.
func TestConcurrentCompleter(t *testing.T) {
	s := randSchema(t, 7)
	r := rand.New(rand.NewSource(7))
	cmp := New(s, Exact())
	type q struct {
		e    pathexpr.Expr
		want resultView
	}
	var qs []q
	for _, root := range s.Classes() {
		if root.Primitive {
			continue
		}
		for _, anchor := range anchors(s, r) {
			e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
			res, err := cmp.Complete(e)
			if err != nil {
				continue
			}
			qs = append(qs, q{e: e, want: view(res)})
		}
	}
	if len(qs) == 0 {
		t.Skip("no valid queries for this seed")
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 40; i++ {
				x := qs[(g+i*3)%len(qs)]
				res, err := cmp.Complete(x.e)
				if err != nil {
					done <- fmt.Errorf("%v: %v", x.e, err)
					return
				}
				if !reflect.DeepEqual(view(res), x.want) {
					done <- fmt.Errorf("%v: concurrent result diverged:\n got:  %+v\n want: %+v", x.e, view(res), x.want)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
