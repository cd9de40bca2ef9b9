package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
)

// One Completer shared by concurrent goroutines must give the same
// answers as one at a time. The suite runs under -race in CI, which
// also exercises the engine pool and the base table for data races.
// Equivalence with the definitional answer is the differential
// harness's (harness_test.go).

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
