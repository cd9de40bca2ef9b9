package closure_test

// The build loop fills anchor columns on runtime.GOMAXPROCS(0) workers.
// This file pins what that must not change: the index a build returns
// (every cell, the counts, the ReuseReport, the persisted bytes) is the
// same on one P as on four. It also holds the helpers the failure-path
// tests use to run at both settings and to check that a failed build
// leaves no reservation and no goroutine behind.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/schema"
)

// procSettings are the GOMAXPROCS values the concurrency tests run at:
// one worker, and more workers than most CI hosts have cores.
var procSettings = []int{1, 4}

// atProcs runs fn with GOMAXPROCS set to procs, then restores it.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// underProcs runs fn as one subtest per procSettings value.
func underProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range procSettings {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			atProcs(procs, func() { fn(t) })
		})
	}
}

// cupid32 is the 32-class schema of the reload benchmark: its exact
// build runs long enough (tens of milliseconds) for a cancel to land
// mid-build and for half a budget to run out mid-build.
func cupid32(t *testing.T) *schema.Schema {
	t.Helper()
	w, err := cupid.Generate(cupid.Config{Seed: 1994, Classes: 32, RelPairs: 64, Hubs: 2, HubFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	return w.Schema
}

// expectFailed checks the failure contract of one build that returned
// (ix, err): err is want, no index came back, b holds nothing, and the
// goroutine count returns to before (polled briefly, since a finished
// worker is counted until it has fully exited).
func expectFailed(t *testing.T, ix *closure.Index, err, want error, b *closure.Budget, before int) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if ix != nil {
		t.Error("index returned alongside the error")
	}
	if b.Used() != 0 {
		t.Errorf("leaked reservation: used=%d", b.Used())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// failBuild runs build, which must fail with want, and checks the
// failure contract.
func failBuild(t *testing.T, want error, b *closure.Budget, build func() (*closure.Index, error)) {
	t.Helper()
	before := runtime.NumGoroutine()
	ix, err := build()
	expectFailed(t, ix, err, want, b, before)
}

// cancelMidBuild runs build under a context that a watcher cancels as
// soon as b holds a reservation, so the cancel lands after the build
// has filled its first anchor column, and checks the failure contract.
// b must start empty. A build that finishes before the cancel lands
// proves nothing, so it is released and run again, up to five times.
func cancelMidBuild(t *testing.T, b *closure.Budget, build func(ctx context.Context) (*closure.Index, error)) {
	t.Helper()
	for attempt := 0; attempt < 5; attempt++ {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			for b.Used() == 0 && ctx.Err() == nil {
				runtime.Gosched()
			}
			cancel()
		}()
		ix, err := build(ctx)
		cancel()
		<-watcher
		if err == nil {
			b.Release(ix.Bytes())
			continue
		}
		expectFailed(t, ix, err, context.Canceled, b, before)
		return
	}
	t.Fatal("every build finished before its cancel landed")
}

// TestBuildSameOnEveryProcCount: the index does not depend on how many
// workers built it. Under paper and exact, a build at GOMAXPROCS(1) and
// one at GOMAXPROCS(4) agree on every cell (reflect.DeepEqual, Stats
// and Support included), on Cells, Anchors and Bytes, and on their
// persisted encoding (save and build times fixed). Under exact, a
// BuildReusing pass after dropping the busiest support edge reports
// the same ReuseReport at both settings and yields the same index.
func TestBuildSameOnEveryProcCount(t *testing.T) {
	s := cupid32(t)
	for _, preset := range []struct {
		name string
		opts core.Options
	}{{"paper", core.Paper()}, {"exact", core.Exact()}} {
		t.Run(preset.name, func(t *testing.T) {
			var built []*closure.Index
			for _, procs := range procSettings {
				atProcs(procs, func() {
					ix, err := closure.Build(context.Background(), "det", 1, core.New(s, preset.opts), nil)
					if err != nil {
						t.Fatalf("procs=%d: Build: %v", procs, err)
					}
					built = append(built, ix)
				})
			}
			sameIndex(t, s, preset.opts, built[0], built[1])
			if !preset.opts.DisableBestU {
				return
			}

			cmp := dropBusiestEdge(t, built[0], s)
			var reused []*closure.Index
			var reports []*closure.ReuseReport
			for _, procs := range procSettings {
				atProcs(procs, func() {
					ix, rep, err := closure.BuildReusing(context.Background(), "det", 2, cmp, nil, built[0], s)
					if err != nil {
						t.Fatalf("procs=%d: BuildReusing: %v", procs, err)
					}
					reused = append(reused, ix)
					reports = append(reports, rep)
				})
			}
			if !reflect.DeepEqual(reports[0], reports[1]) {
				t.Errorf("ReuseReport: %+v at GOMAXPROCS(1), %+v at GOMAXPROCS(4)", reports[0], reports[1])
			}
			if rep := reports[0]; rep.Reused == 0 || rep.Rebuilt == 0 {
				t.Errorf("report %+v: the dropped edge should leave cells to reuse and to rebuild", rep)
			}
			sameIndex(t, cmp.Schema(), preset.opts, reused[0], reused[1])
		})
	}
}

// sameIndex requires two builds of s under opts to be indistinguishable.
func sameIndex(t *testing.T, s *schema.Schema, opts core.Options, a, b *closure.Index) {
	t.Helper()
	if a.Cells() != b.Cells() || a.Anchors() != b.Anchors() || a.Bytes() != b.Bytes() || a.ReusedCells() != b.ReusedCells() {
		t.Fatalf("counts differ: cells %d/%d, anchors %d/%d, bytes %d/%d, reused %d/%d",
			a.Cells(), b.Cells(), a.Anchors(), b.Anchors(), a.Bytes(), b.Bytes(), a.ReusedCells(), b.ReusedCells())
	}
	a.Walk(func(anchor string, root schema.ClassID, want *core.Result) {
		got, ok := b.Lookup(root, anchor)
		if !ok {
			t.Fatalf("cell %s~%s missing", s.Class(root).Name, anchor)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %s~%s differs:\n%+v\n%+v", s.Class(root).Name, anchor, want, got)
		}
	})
	var enc [][]byte
	for _, ix := range []*closure.Index{a, b} {
		f, err := persist.Capture("det", s, opts, ix.Generation(), 1754600000, ix)
		if err != nil {
			t.Fatalf("Capture: %v", err)
		}
		// The file records the build's wall-clock time, which differs
		// from run to run like the save time does; fix both.
		f.Closure.BuildMs = 0
		enc = append(enc, f.Encode())
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Errorf("persisted encodings differ (%d and %d bytes)", len(enc[0]), len(enc[1]))
	}
}
