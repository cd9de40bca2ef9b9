package core

// Tests for the graceful-degradation contract: cancellation and
// deadlines stop the search mid-traversal and the partial Result is
// still well-formed — every returned completion is a valid consistent
// acyclic path drawn from the definitional answer space Ψ (Section 3),
// the stop is reported through Aborted/StopReason rather than an
// error, and the bounds (MaxCalls, Deadline, context) compose.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"
)

// layeredSchema builds a deterministic schema of l layers with w
// classes each, fully associated layer to layer, with a "label"
// attribute on the last layer. Every root-to-label path carries the
// same label, so nothing prunes and the search cost grows as w^l —
// a dial for making searches arbitrarily expensive.
func layeredSchema(t testing.TB, w, l int) *schema.Schema {
	t.Helper()
	b := schema.NewBuilder(fmt.Sprintf("layered-%dx%d", w, l))
	name := func(i, j int) string { return fmt.Sprintf("l%dw%d", i, j) }
	for i := 0; i < l; i++ {
		for j := 0; j < w; j++ {
			b.Class(name(i, j))
		}
	}
	k := 0
	for i := 0; i+1 < l; i++ {
		for j := 0; j < w; j++ {
			for j2 := 0; j2 < w; j2++ {
				b.Assoc(name(i, j), name(i+1, j2), fmt.Sprintf("as%d", k), fmt.Sprintf("sa%d", k))
				k++
			}
		}
	}
	for j := 0; j < w; j++ {
		b.Attr(name(l-1, j), "label", "C")
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("layeredSchema(%d, %d): %v", w, l, err)
	}
	return s
}

// budgetWorkload returns a schema and expression whose unbudgeted
// search costs hundreds of traverse calls — enough to interrupt
// several amortized stop-check intervals in.
func budgetWorkload(t testing.TB) (*schema.Schema, pathexpr.Expr) {
	t.Helper()
	s := layeredSchema(t, 2, 8)
	e := pathexpr.Expr{Root: "l0w0", Steps: []pathexpr.Step{{Gap: true, Name: "label"}}}
	return s, e
}

// consistentSet enumerates Ψ — every valid consistent acyclic
// completion — as a set of rendered expressions.
func consistentSet(t *testing.T, s *schema.Schema, e pathexpr.Expr) map[string]bool {
	t.Helper()
	all, err := EnumerateConsistent(s, e, Paper(), 0)
	if err != nil {
		t.Fatalf("EnumerateConsistent: %v", err)
	}
	set := make(map[string]bool, len(all))
	for _, r := range all {
		set[r.String()] = true
	}
	return set
}

// checkPartial asserts the degradation contract on an aborted result:
// well-formed, valid completions, all members of Ψ.
func checkPartial(t *testing.T, res *Result, e pathexpr.Expr, psi map[string]bool, want StopReason) {
	t.Helper()
	if !res.Aborted {
		t.Fatalf("expected an aborted result, got StopReason=%q with %d completions",
			res.StopReason, len(res.Completions))
	}
	if res.StopReason != want {
		t.Errorf("StopReason = %q, want %q", res.StopReason, want)
	}
	for _, c := range res.Completions {
		if !c.Path.ConsistentWith(e) || !c.Path.Acyclic() {
			t.Errorf("partial result contains invalid completion %v", c.Path)
		}
		if !psi[c.Path.String()] {
			t.Errorf("partial completion %v is not in the consistent set Ψ", c.Path)
		}
	}
}

// cancelTracer cancels a context after n node entries — a
// deterministic way to interrupt a search mid-traversal.
type cancelTracer struct {
	left   int
	cancel context.CancelFunc
}

func (c *cancelTracer) OnEnter(schema.ClassID, int, int, label.Label) {
	if c.left--; c.left == 0 {
		c.cancel()
	}
}
func (c *cancelTracer) OnPrune(PruneKind, schema.Rel, int, label.Label) {}
func (c *cancelTracer) OnOffer([]schema.RelID, label.Label, bool)       {}
func (c *cancelTracer) OnPreempt(_, _ *pathexpr.Resolved)               {}

func TestCancelMidSearch(t *testing.T) {
	s, e := budgetWorkload(t)
	psi := consistentSet(t, s, e)

	full, err := New(s, Paper()).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if full.Aborted || full.StopReason != StopNone {
		t.Fatalf("unbounded run reports aborted: %+v", full.StopReason)
	}
	if full.Stats.Calls < 3*stopCheckInterval {
		t.Fatalf("workload too small to interrupt: %d calls", full.Stats.Calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Paper()
	opts.Tracer = &cancelTracer{left: stopCheckInterval + 1, cancel: cancel}
	res, err := New(s, opts).CompleteContext(ctx, e)
	if err != nil {
		t.Fatalf("CompleteContext: %v", err)
	}
	checkPartial(t, res, e, psi, StopCanceled)
	// The amortized check fires within one interval of the cancel.
	if res.Stats.Calls > 3*stopCheckInterval {
		t.Errorf("search ran %d calls after a cancel at ~%d", res.Stats.Calls, stopCheckInterval)
	}
	if res.Stats.Calls >= full.Stats.Calls {
		t.Errorf("canceled search did not stop early: %d vs %d calls", res.Stats.Calls, full.Stats.Calls)
	}
}

func TestDeadlineOptionExpires(t *testing.T) {
	s, e := budgetWorkload(t)
	psi := consistentSet(t, s, e)
	opts := Paper()
	opts.Deadline = time.Nanosecond // expired by the first amortized check
	res, err := New(s, opts).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	checkPartial(t, res, e, psi, StopDeadline)
	if res.Stats.Calls > stopCheckInterval {
		t.Errorf("expired deadline still ran %d calls", res.Stats.Calls)
	}
}

func TestContextDeadlineMapsToStopDeadline(t *testing.T) {
	s, e := budgetWorkload(t)
	psi := consistentSet(t, s, e)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := New(s, Paper()).CompleteContext(ctx, e)
	if err != nil {
		t.Fatalf("CompleteContext: %v", err)
	}
	checkPartial(t, res, e, psi, StopDeadline)
}

func TestMaxCallsAndDeadlineCompose(t *testing.T) {
	s, e := budgetWorkload(t)
	psi := consistentSet(t, s, e)

	// Generous deadline, tight call budget: MaxCalls wins.
	opts := Paper()
	opts.Deadline = time.Hour
	opts.MaxCalls = 10
	res, err := New(s, opts).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	checkPartial(t, res, e, psi, StopMaxCalls)

	// Generous call budget, expired deadline: the deadline wins.
	opts = Paper()
	opts.Deadline = time.Nanosecond
	opts.MaxCalls = 1 << 30
	res, err = New(s, opts).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	checkPartial(t, res, e, psi, StopDeadline)

	// Both generous: the search runs to completion.
	opts = Paper()
	opts.Deadline = time.Hour
	opts.MaxCalls = 1 << 30
	res, err = New(s, opts).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if res.Aborted || res.StopReason != StopNone {
		t.Errorf("generous bounds aborted the search: %q", res.StopReason)
	}
}

// TestDeadlinePartialIsSubsetOfFull interrupts the same search at
// increasing points and checks the partial answers never leave the
// consistent set and eventually converge on the full answer.
func TestDeadlinePartialIsSubsetOfFull(t *testing.T) {
	s, e := budgetWorkload(t)
	psi := consistentSet(t, s, e)
	full, err := New(s, Paper()).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	fullSet := make(map[string]bool)
	for _, c := range full.Completions {
		fullSet[c.Path.String()] = true
	}
	for _, budget := range []int{1, 2, 4, 8} {
		opts := Paper()
		opts.MaxCalls = budget * full.Stats.Calls / 10
		res, err := New(s, opts).Complete(e)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for _, c := range res.Completions {
			if !psi[c.Path.String()] {
				t.Errorf("budget %d: completion %v outside Ψ", budget, c.Path)
			}
		}
	}
	// A budget beyond the full cost returns exactly the full answer.
	opts := Paper()
	opts.MaxCalls = full.Stats.Calls + 1
	res, err := New(s, opts).Complete(e)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if len(res.Completions) != len(full.Completions) {
		t.Fatalf("converged run: %d completions, want %d", len(res.Completions), len(full.Completions))
	}
	for _, c := range res.Completions {
		if !fullSet[c.Path.String()] {
			t.Errorf("converged run returned %v, absent from the full answer", c.Path)
		}
	}
}

func TestNilContext(t *testing.T) {
	s := uni.New()
	res, err := New(s, Paper()).CompleteContext(nil, pathexpr.MustParse("ta~name")) //nolint:staticcheck
	if err != nil || len(res.Completions) != 2 {
		t.Fatalf("nil context: res=%v err=%v", res, err)
	}
}

// BenchmarkStopCheckOverhead compares the flagship query on the
// Background fast path (no stop sources: one untaken branch per call)
// against a far-future deadline (amortized clock checks) — the
// robustness counterpart of BenchmarkTracerOverhead's <2% budget.
func BenchmarkStopCheckOverhead(b *testing.B) {
	s := uni.New()
	e := pathexpr.MustParse("ta~name")
	run := func(b *testing.B, opts Options, ctx context.Context) {
		b.Helper()
		b.ReportAllocs()
		c := New(s, opts)
		for i := 0; i < b.N; i++ {
			res, err := c.CompleteContext(ctx, e)
			if err != nil || len(res.Completions) != 2 {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	}
	b.Run("background", func(b *testing.B) {
		run(b, Paper(), context.Background())
	})
	b.Run("deadline", func(b *testing.B) {
		opts := Paper()
		opts.Deadline = time.Hour
		run(b, opts, context.Background())
	})
	b.Run("ctx-deadline", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		run(b, Paper(), ctx)
	})
}
