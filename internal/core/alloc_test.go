//go:build !race

package core

import (
	"runtime"
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
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
	paperE3 := Paper()
	paperE3.E = 3
	for _, tc := range []struct {
		name  string
		opts  Options
		e     pathexpr.Expr
		bound float64
		// belowPaper: the lane allocates no more than the searched
		// paper lane, measured in the same run.
		belowPaper bool
	}{
		{"paper", Paper(), taName, 120, false},
		{"safe", Safe(), taName, 120, false},
		{"exact", Exact(), taName, 120, false},
		// The constrained lanes of BenchmarkConstrainedTaName: every
		// query compiles and determinizes its gap constraint over the
		// schema's edge vocabulary before the (pooled) search runs.
		{"regex", Exact(), pathexpr.MustParse("ta~(grad.*)~name"), 160, false},
		{"degenerate", Exact(), pathexpr.MustParse("ta~(.*)~name"), 200, false},
		// The reachability check answers this query without a traversal
		// (no gap ends on the inverse of an attribute), on scratch the
		// pooled engine already holds.
		{"unanswerable", Paper(), pathexpr.MustParse("ta~person_of_name"), 120, true},
		// The shape of the server's e overrides: E words per best[]
		// set, in slots the pooled engine already holds.
		{"paper-e3", paperE3, taName, 120, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmp := New(s, tc.opts)
			got := warmAllocs(t, cmp, tc.e)
			if got > tc.bound {
				t.Errorf("warm Complete allocates %.0f/op, want <= %.0f (pool, index or determinization regression?)", got, tc.bound)
			}
			t.Logf("warm Complete: %.0f allocs/op", got)
			if tc.belowPaper {
				if baseline := warmAllocs(t, New(s, Paper()), taName); got > baseline {
					t.Errorf("%v allocates %.0f/op, the searched paper lane %.0f/op", tc.e, got, baseline)
				}
			}
			if tc.name == "unanswerable" {
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
	// A fresh engine sizes its best[u] table by states, not states × E:
	// on a fresh Completer the check's answer at the server's largest E
	// allocates at most the E words of the packed best[T] more than at
	// E=1.
	t.Run("fresh-e64", func(t *testing.T) {
		const maxE = 64
		e := pathexpr.MustParse("ta~person_of_name")
		at1, at64 := freshBytes(t, s, e, 1), freshBytes(t, s, e, maxE)
		if at64 > at1+maxE*8 {
			t.Errorf("a fresh Completer allocates %d B at E=%d and %d B at E=1: more than the %d B of best[T] apart", at64, maxE, at1, maxE*8)
		}
		t.Logf("fresh Complete: %d B at E=1, %d B at E=%d", at1, at64, maxE)
	})
}

// freshBytes reports the heap bytes one Complete call allocates on a
// fresh Paper() Completer at the given E: the least of a few tries, so
// that an allocation elsewhere in the process does not count.
func freshBytes(t *testing.T, s *schema.Schema, e pathexpr.Expr, E int) uint64 {
	t.Helper()
	opts := Paper()
	opts.E = E
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		cmp := New(s, opts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cmp.Complete(e); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
