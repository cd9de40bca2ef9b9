package core

import (
	"context"
	"reflect"
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// TestCompleteBatch checks that concurrent batch completion
// (CompleteBatchContext) returns exactly the sequential answers,
// positionally, with errors isolated to their own slots. Run under -race this also checks the Completer's
// concurrency safety.
func TestCompleteBatch(t *testing.T) {
	s := uni.New()
	c := New(s, Exact())
	exprs := []pathexpr.Expr{
		pathexpr.MustParse("ta~name"),
		pathexpr.MustParse("department~course"),
		pathexpr.MustParse("nosuch~name"), // error slot
		pathexpr.MustParse("university~ssn"),
		pathexpr.MustParse("ta~course"),
		pathexpr.MustParse("student~credits"),
	}
	for _, workers := range []int{0, 1, 3, 16} {
		results, errs := c.CompleteBatchContext(context.Background(), exprs, workers)
		if len(results) != len(exprs) || len(errs) != len(exprs) {
			t.Fatalf("workers=%d: lengths %d/%d", workers, len(results), len(errs))
		}
		for i, e := range exprs {
			seq, seqErr := c.Complete(e)
			switch {
			case seqErr != nil:
				if errs[i] == nil || results[i] != nil {
					t.Errorf("workers=%d slot %d: want error, got %v/%v", workers, i, results[i], errs[i])
				}
			default:
				if errs[i] != nil || results[i] == nil {
					t.Errorf("workers=%d slot %d: unexpected error %v", workers, i, errs[i])
					continue
				}
				if !reflect.DeepEqual(results[i].Strings(), seq.Strings()) {
					t.Errorf("workers=%d slot %d: batch %v != sequential %v",
						workers, i, results[i].Strings(), seq.Strings())
				}
			}
		}
	}
}
