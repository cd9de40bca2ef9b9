package core_test

import (
	"fmt"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/pathexpr"
)

// TestPerNodePruningLosesAnswersAtPaperScale pins three paper-scale
// witnesses of the suffix-feasibility loss that
// TestPerNodePruningCanLoseAnswers shows on a small random schema: on
// the cupid92 schema, each of these single-gap cells has ten optimal
// completions, which Exact() finds after about 9.9 M traverse calls,
// while Paper() and Safe() — per-node best[u] pruning with the paper's
// or the extended caution sets — return none. On the 2,760-cell sample
// of cupid92 (every root against every ninth gap anchor) these are the
// three cells where Safe() differs from Exact(); Paper() differs on
// fourteen.
func TestPerNodePruningLosesAnswersAtPaperScale(t *testing.T) {
	w, err := cupid.Generate(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	paper := core.New(w.Schema, core.Paper())
	safe := core.New(w.Schema, core.Safe())
	exact := core.New(w.Schema, core.Exact())
	for _, tc := range []struct {
		expr string
		best string
	}{
		{"fruit_1~entry_1_7", "[[.., 6]]"},
		{"soil_model_1~entry_1_7", "[[.., 6]]"},
		{"soil_layer_1~entry_1_7", "[[.., 5]]"},
	} {
		e := pathexpr.MustParse(tc.expr)
		ex, err := exact.Complete(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ex.Best); len(ex.Completions) != 10 || got != tc.best {
			t.Errorf("%s: Exact() found %d completions with Best %s, want 10 with Best %s", tc.expr, len(ex.Completions), got, tc.best)
		}
		for name, cmp := range map[string]*core.Completer{"Paper()": paper, "Safe()": safe} {
			res, err := cmp.Complete(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Completions) != 0 {
				// Not a failure of the heuristic: it would mean the cell
				// no longer exhibits the loss; find a new witness.
				t.Errorf("%s: %s found %v; the cell no longer witnesses the loss", tc.expr, name, res.Strings())
			}
		}
	}
}
