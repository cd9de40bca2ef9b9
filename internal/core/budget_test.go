package core

import (
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/uni"
)

// TestMaxCallsBudget checks the interactive-latency budget: a tight
// budget stops the search early with StopReason max_calls, a generous one
// changes nothing, and whatever is returned under a budget is still
// consistent.
func TestMaxCallsBudget(t *testing.T) {
	// A random schema with a shared attribute anchor gives a search in
	// the hundreds of calls.
	s := randSchema(t, 7)
	e := pathexpr.Expr{Root: s.Classes()[5].Name, Steps: []pathexpr.Step{{Gap: true, Name: "label"}}}

	full, err := New(s, Paper()).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if full.Stats.Calls < 20 {
		t.Fatalf("workload too small for the budget test: %d calls", full.Stats.Calls)
	}
	if full.StopReason != StopNone {
		t.Fatalf("unbudgeted run stopped: %q", full.StopReason)
	}

	tight := Paper()
	tight.MaxCalls = full.Stats.Calls / 10
	res, err := New(s, tight).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if res.StopReason != StopMaxCalls {
		t.Errorf("budget %d of %d calls should exhaust", tight.MaxCalls, full.Stats.Calls)
	}
	if res.Stats.Calls > tight.MaxCalls {
		t.Errorf("calls %d exceeded budget %d", res.Stats.Calls, tight.MaxCalls)
	}
	for _, c := range res.Completions {
		if !c.Path.ConsistentWith(e) || !c.Path.Acyclic() {
			t.Errorf("budgeted run returned invalid completion %v", c.Path)
		}
	}

	generous := Paper()
	generous.MaxCalls = full.Stats.Calls + 1
	res2, err := New(s, generous).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if res2.StopReason != StopNone {
		t.Errorf("generous budget stopped the search: %q", res2.StopReason)
	}
	if len(res2.Completions) != len(full.Completions) {
		t.Errorf("generous budget changed the answer: %d vs %d",
			len(res2.Completions), len(full.Completions))
	}
}

// TestMaxCallsSmallSchema: on the university schema even tiny budgets
// return the flagship answers because the target-first exploration
// finds them immediately.
func TestMaxCallsSmallSchema(t *testing.T) {
	s := uni.New()
	opts := Paper()
	opts.MaxCalls = 5
	res, err := New(s, opts).Complete(pathexpr.MustParse("ta~name"))
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if res.StopReason != StopMaxCalls {
		t.Error("budget of 5 calls should exhaust on the university schema")
	}
	// The grad-chain answer is found within the first few calls
	// because children are explored best-edge-first.
	if len(res.Completions) == 0 {
		t.Error("even the tight budget should find an answer")
	}
}
