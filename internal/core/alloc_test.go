//go:build !race

package core

import (
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// Allocation regression guards for the warm hot path (pooled engine,
// built base table, no tracer, background context). Every query
// compiles its pattern's override rows, a handful of allocations. The
// bounds are deliberately loose — about 2x the measured steady state —
// so the guard catches a regression back toward the pre-compilation
// engine (hundreds of allocations per op) without flaking on small
// runtime variations. The constrained lanes also pin the cost of
// compiling a gap constraint: a few dozen allocations for the regex
// program, the edge vocabulary and the determinized table. The file is
// excluded under -race: the race runtime adds bookkeeping allocations
// that are not the engine's.

// warmAllocs reports the steady-state allocations of one Complete call
// on a warmed completer.
func warmAllocs(t *testing.T, cmp *Completer, e pathexpr.Expr) float64 {
	t.Helper()
	for i := 0; i < 3; i++ { // warm the pool and the base table
		if _, err := cmp.Complete(e); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := cmp.Complete(e); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWarmCompleteAllocs(t *testing.T) {
	s := uni.New()
	taName := pathexpr.MustParse("ta~name")
	for _, tc := range []struct {
		name  string
		opts  Options
		e     pathexpr.Expr
		bound float64
	}{
		{"paper", Paper(), taName, 120},
		{"safe", Safe(), taName, 120},
		{"exact", Exact(), taName, 120},
		// The constrained lanes of BenchmarkConstrainedTaName: every
		// query compiles and determinizes its gap constraint over the
		// schema's edge vocabulary before the (pooled) search runs.
		{"regex", Exact(), pathexpr.MustParse("ta~(grad.*)~name"), 160},
		{"degenerate", Exact(), pathexpr.MustParse("ta~(.*)~name"), 200},
		// The reachability check answers this query without a traversal
		// (no gap ends on the inverse of an attribute), on scratch the
		// pooled engine already holds: no more allocations than the
		// searched paper lane.
		{"unanswerable", Paper(), pathexpr.MustParse("ta~person_of_name"), 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmp := New(s, tc.opts)
			got := warmAllocs(t, cmp, tc.e)
			if got > tc.bound {
				t.Errorf("warm Complete allocates %.0f/op, want <= %.0f (pool, index or determinization regression?)", got, tc.bound)
			}
			t.Logf("warm Complete: %.0f allocs/op", got)
			if tc.name == "unanswerable" {
				if baseline := warmAllocs(t, New(s, Paper()), taName); got > baseline {
					t.Errorf("the check's answer allocates %.0f/op, the searched paper lane %.0f/op", got, baseline)
				}
				res, err := cmp.Complete(tc.e)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Calls != 0 || len(res.Completions) != 0 {
					t.Errorf("%v: %d calls, %d completions, want the check's empty answer", tc.e, res.Stats.Calls, len(res.Completions))
				}
			}
		})
	}
}
