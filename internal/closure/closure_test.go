package closure_test

// Every cell of a materialized Index must be bit-for-bit the Result the
// online kernel returns for the same `root ~ anchor` query, Stats
// included, under the exact, paper and safe presets (internal/core's
// differential harness also checks the durable copy). Plus unit
// coverage of the byte Budget and the Builder/Handle lifecycle (ready,
// budget-exhausted, cancel-mid-build, cancel-after-ready, the Disabled
// helper, and the observer contract).

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// diffSchemas is the number of generated schemas the differential
// sweep covers. Each schema is checked over its full anchor × root
// grid, so the corpus is kept small and the class range tight.
const diffSchemas = 40

// diffConfig derives a generator config: sizes cycle 3..24 classes so
// a full all-pairs grid stays cheap.
func diffConfig(i int64) cupid.Config {
	classes := 3 + int(i)%22
	hubs := 0
	fanout := 0
	if classes >= 12 && i%3 == 0 {
		hubs = 1
		fanout = 2 + int(i)%4
	}
	return cupid.Config{
		Seed:      i,
		Classes:   classes,
		RelPairs:  classes - 1 + hubs*fanout + classes/2 + int(i)%7,
		Hubs:      hubs,
		HubFanout: fanout,
	}
}

// TestClosureOracleEquivalence: for every generated schema and each of
// the three presets, Build the full Index and require every Lookup to
// be reflect.DeepEqual to a fresh online Complete of the same query
// under the same options, and no cell for a primitive root.
func TestClosureOracleEquivalence(t *testing.T) {
	n := int64(diffSchemas)
	if testing.Short() {
		n = 10
	}
	for i := int64(0); i < n; i++ {
		cfg := diffConfig(i)
		w, err := cupid.Generate(cfg)
		if err != nil {
			t.Fatalf("schema %d: Generate(%+v): %v", i, cfg, err)
		}
		s := w.Schema
		anchors := core.GapAnchors(s)
		for _, opts := range []core.Options{core.Exact(), core.Paper(), core.Safe()} {
			opts.E = 1 + int(i)%3
			opts.NoPreemption = i%2 == 0
			opts.PreferSpecific = i%5 == 0
			cmp := core.New(s, opts)
			ix, err := closure.Build(context.Background(), "diff", uint64(i), cmp, nil)
			if err != nil {
				t.Fatalf("schema %d (opts %+v): Build: %v", i, opts, err)
			}
			if ix.Anchors() != len(anchors) || ix.Bytes() <= 0 || ix.Cells() <= 0 {
				t.Errorf("schema %d (opts %+v): anchors=%d (want %d) bytes=%d cells=%d",
					i, opts, ix.Anchors(), len(anchors), ix.Bytes(), ix.Cells())
			}
			for _, anchor := range anchors {
				for _, c := range s.Classes() {
					e := pathexpr.Expr{Root: c.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
					got, hit := ix.Lookup(c.ID, anchor)
					if c.Primitive {
						if hit {
							t.Errorf("schema %d: Lookup(%s~%s): cell materialized for primitive root", i, c.Name, anchor)
						}
						continue
					}
					want, err := cmp.Complete(e)
					if err != nil {
						t.Fatalf("schema %d: Complete(%s~%s): %v", i, c.Name, anchor, err)
					}
					if !hit {
						t.Errorf("schema %d: Lookup(%s~%s): missing cell", i, c.Name, anchor)
					} else if !reflect.DeepEqual(got, want) {
						t.Errorf("schema %d (classes=%d, opts=%+v) %s~%s: closure cell diverges from kernel:\nclosure: %+v %+v\nkernel:  %+v %+v",
							i, cfg.Classes, opts, c.Name, anchor, view(got), got.Stats, view(want), want.Stats)
					}
				}
			}
		}
	}
}

// cellView is the externally observable outcome of one completion,
// restated here (the core suites' helper is test-internal).
type cellView struct {
	Completions []string
	Labels      []string
	Best        []string
	Truncated   bool
	Aborted     bool
}

func view(r *core.Result) cellView {
	labels := make([]string, len(r.Completions))
	for i, c := range r.Completions {
		labels[i] = c.Label.String()
	}
	best := make([]string, len(r.Best))
	for i, k := range r.Best {
		best[i] = fmt.Sprintf("%s/%d", k.Conn, k.SemLen)
	}
	return cellView{
		Completions: r.Strings(),
		Labels:      labels,
		Best:        best,
		Truncated:   r.Truncated,
		Aborted:     r.Aborted,
	}
}

// TestLookupUnknown: anchors and roots outside the grid answer
// (nil, false), never panic.
func TestLookupUnknown(t *testing.T) {
	w, err := cupid.Generate(diffConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cmp := core.New(w.Schema, core.Exact())
	ix, err := closure.Build(context.Background(), "x", 1, cmp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Lookup(0, "no-such-anchor"); ok {
		t.Error("unknown anchor reported a cell")
	}
	if _, ok := ix.Lookup(schema.ClassID(1_000_000), core.GapAnchors(w.Schema)[0]); ok {
		t.Error("out-of-range root reported a cell")
	}
}

// TestBudget exercises the CAS reservation arithmetic, the unbounded
// mode, and nil-safety.
func TestBudget(t *testing.T) {
	b := closure.NewBudget(100)
	if !b.Reserve(60) || b.Used() != 60 {
		t.Fatalf("Reserve(60): used=%d", b.Used())
	}
	if b.Reserve(50) {
		t.Error("Reserve(50) fit in a 100-byte budget holding 60")
	}
	if !b.Reserve(40) || b.Used() != 100 {
		t.Errorf("Reserve(40): used=%d", b.Used())
	}
	b.Release(100)
	if b.Used() != 0 {
		t.Errorf("after release: used=%d", b.Used())
	}
	if b.Max() != 100 {
		t.Errorf("Max() = %d", b.Max())
	}

	unbounded := closure.NewBudget(0)
	if !unbounded.Reserve(1 << 40) {
		t.Error("unbounded budget refused a reservation")
	}

	var nilB *closure.Budget
	if !nilB.Reserve(7) {
		t.Error("nil budget refused a reservation")
	}
	nilB.Release(7)
	if nilB.Used() != 0 || nilB.Max() != 0 {
		t.Error("nil budget accounting nonzero")
	}
}

// TestBuildBudgetExhausted: a build that cannot fit returns ErrBudget,
// returns no index, leaves the whole reservation released and no
// worker running — whether the budget runs out at the first column or
// about halfway, on one P or on four.
func TestBuildBudgetExhausted(t *testing.T) {
	s := cupid32(t)
	cmp := core.New(s, core.Exact())
	full, err := closure.Build(context.Background(), "x", 1, cmp, nil)
	if err != nil {
		t.Fatal(err)
	}
	underProcs(t, func(t *testing.T) {
		// 64 bytes is smaller than a single cell's base cost.
		for _, max := range []int64{64, full.Bytes() / 2} {
			b := closure.NewBudget(max)
			failBuild(t, closure.ErrBudget, b, func() (*closure.Index, error) {
				return closure.Build(context.Background(), "x", 1, cmp, b)
			})
		}
	})
}

// TestBuildCancel: a cancelled context aborts the build with the
// context error, no index, no leaked reservation and no worker left
// running — whether it was cancelled before the build or after the
// first column, on one P or on four.
func TestBuildCancel(t *testing.T) {
	cmp := core.New(cupid32(t), core.Exact())
	underProcs(t, func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		b := closure.NewBudget(1 << 30)
		failBuild(t, context.Canceled, b, func() (*closure.Index, error) {
			return closure.Build(ctx, "x", 1, cmp, b)
		})
		cancelMidBuild(t, b, func(ctx context.Context) (*closure.Index, error) {
			return closure.Build(ctx, "x", 1, cmp, b)
		})
	})
}

// recObserver records build lifecycle events.
type recObserver struct {
	mu       sync.Mutex
	started  []string
	finished []string // "schema:outcome"
}

func (o *recObserver) ClosureBuildStarted(s string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started = append(o.started, s)
}

func (o *recObserver) ClosureBuildFinished(s, outcome string, _ time.Duration, _ int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished = append(o.finished, s+":"+outcome)
}

func (o *recObserver) snapshot() ([]string, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.started...), append([]string(nil), o.finished...)
}

// TestBuilderWarmReady: the happy lifecycle — building → ready, a
// served Lookup, observer events, and Cancel releasing the ready
// index's bytes back to the budget.
func TestBuilderWarmReady(t *testing.T) {
	w, err := cupid.Generate(diffConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cmp := core.New(w.Schema, core.Exact())
	obs := &recObserver{}
	b := closure.NewBuilder(1, 1<<30, obs)
	h := b.Warm("alpha", 7, cmp)
	<-h.Done()

	st := h.Status()
	if st.State != closure.StateReady {
		t.Fatalf("state = %q (%s), want ready", st.State, st.Reason)
	}
	if st.Bytes <= 0 || st.Cells <= 0 {
		t.Errorf("ready status with empty accounting: %+v", st)
	}
	ix := h.Index()
	if ix == nil {
		t.Fatal("ready handle with nil index")
	}
	if ix.SchemaName() != "alpha" || ix.Generation() != 7 {
		t.Errorf("index identity = %s/%d", ix.SchemaName(), ix.Generation())
	}
	if b.Budget().Used() != ix.Bytes() {
		t.Errorf("budget used = %d, index bytes = %d", b.Budget().Used(), ix.Bytes())
	}
	started, finished := obs.snapshot()
	if len(started) != 1 || started[0] != "alpha" {
		t.Errorf("started events = %v", started)
	}
	if len(finished) != 1 || finished[0] != "alpha:ready" {
		t.Errorf("finished events = %v", finished)
	}

	// Retirement: Cancel on a ready handle releases its reservation.
	h.Cancel()
	h.Cancel() // idempotent
	if got := b.Budget().Used(); got != 0 {
		t.Errorf("budget after retire = %d, want 0", got)
	}
	if st := h.Status(); st.State != closure.StateDisabled {
		t.Errorf("state after retire = %q", st.State)
	}
	if h.Index() != nil {
		t.Error("index survives retirement")
	}
}

// TestBuilderBudgetDisables: a build over budget lands the handle in
// disabled with the budget reason and a "budget" observer outcome.
func TestBuilderBudgetDisables(t *testing.T) {
	w, err := cupid.Generate(diffConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	cmp := core.New(w.Schema, core.Exact())
	obs := &recObserver{}
	b := closure.NewBuilder(1, 64, obs)
	h := b.Warm("beta", 1, cmp)
	<-h.Done()
	if st := h.Status(); st.State != closure.StateDisabled || st.Reason != "budget" {
		t.Errorf("status = %+v, want disabled/budget", st)
	}
	if b.Budget().Used() != 0 {
		t.Errorf("leaked reservation: %d", b.Budget().Used())
	}
	if _, finished := obs.snapshot(); len(finished) != 1 || finished[0] != "beta:budget" {
		t.Errorf("finished events = %v", finished)
	}
}

// TestBuilderCancelQueued: a handle cancelled while waiting for a
// worker slot never builds at all.
func TestBuilderCancelQueued(t *testing.T) {
	w, err := cupid.Generate(diffConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	cmp := core.New(w.Schema, core.Exact())
	obs := &recObserver{}
	b := closure.NewBuilder(1, 0, obs)

	// Occupy the only worker slot with a build we control, then queue a
	// second warm behind it and cancel the queued one.
	first := b.Warm("first", 1, cmp)
	<-first.Done() // slot free again; reoccupy it deterministically:
	blockCmp := core.New(w.Schema, core.Exact())
	blocker := b.Warm("blocker", 2, blockCmp)
	queued := b.Warm("queued", 3, cmp)
	// queued is either waiting for the slot or will be; cancel it.
	queued.Cancel()
	<-queued.Done()
	if st := queued.Status(); st.State != closure.StateDisabled {
		t.Errorf("queued state = %q", st.State)
	}
	blocker.Cancel()
	<-blocker.Done()
	first.Cancel()
	if got := b.Budget().Used(); got != 0 {
		t.Errorf("budget after cancelling everything = %d", got)
	}
	_, finished := obs.snapshot()
	for _, f := range finished {
		if f == "queued:ready" {
			t.Errorf("cancelled queued build reported ready: %v", finished)
		}
	}
}

// TestDisabledHandle: the permanently-disabled handle used when
// closure is switched off.
func TestDisabledHandle(t *testing.T) {
	h := closure.Disabled("closure disabled")
	select {
	case <-h.Done():
	default:
		t.Error("Disabled handle's Done not closed")
	}
	if st := h.Status(); st.State != closure.StateDisabled || st.Reason != "closure disabled" {
		t.Errorf("status = %+v", st)
	}
	if h.Index() != nil {
		t.Error("Disabled handle has an index")
	}
	h.Cancel() // must not panic (b == nil)
}
