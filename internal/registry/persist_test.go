package registry

// Registry ↔ persist integration: restore-before-compile on install,
// persist-after-warm from the watcher goroutine, durable files
// following their schema's lifecycle (a stale file replaced on SDL
// change, deletion when a reload drops the name), and — under -race — SIGHUP
// reloads racing background persists without leaking temp files,
// regressing the on-disk generation, or quarantining live state.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/schema"
)

// waitFor polls cond until it holds or the test deadline budget runs
// out — the watcher goroutine between Handle.Done and Store.Save is
// the only asynchrony these tests must absorb.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// persistReg builds a registry with closure warming and a persist
// store over data, loads dir, and returns both.
func persistReg(t *testing.T, dir, data string) (*Registry, *persist.Store) {
	t.Helper()
	ps, err := persist.Open(data)
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	r := New(core.Exact())
	r.EnablePersist(ps)
	r.EnableClosure(closure.NewBuilder(2, 0, nil))
	if err := r.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return r, ps
}

// waitWarmSaved blocks until every served schema is closure-ready and
// its current generation is durably scheduled, then drains pending
// writes.
func waitWarmSaved(t *testing.T, r *Registry, ps *persist.Store) {
	t.Helper()
	waitFor(t, "warm + persist of every schema", func() bool {
		for _, name := range r.Names() {
			sn, err := r.Acquire(name)
			if err != nil {
				return false
			}
			gen, st := sn.Generation(), sn.ClosureStatus()
			sn.Release()
			if st.State != closure.StateReady {
				return false
			}
			if st.Restored {
				continue // restored closures are not re-saved
			}
			if g, ok := ps.SavedGeneration(name); !ok || g < gen {
				return false
			}
		}
		return true
	})
	ps.Flush()
}

func TestPersistRestoreOnRestart(t *testing.T) {
	dir := t.TempDir()
	data := t.TempDir()
	writeSchemaDir(t, dir, map[string]string{"alpha": schemaV1, "beta": schemaV2})

	// First boot: everything warms by search and persists.
	r1, ps1 := persistReg(t, dir, data)
	waitWarmSaved(t, r1, ps1)
	if s := ps1.Stats(); s.Saves != 2 || s.Restores != 0 {
		t.Fatalf("first boot stats = %+v, want 2 saves", s)
	}

	// "Clean-shutdown restart": a fresh registry and store over the
	// same data directory. Both schemas must come up restored, with
	// zero recompiles — the fleet-restart guarantee.
	r2, ps2 := persistReg(t, dir, data)
	if s := ps2.Stats(); s.Restores != 2 || s.Recompiles != 0 || s.Quarantines != 0 {
		t.Fatalf("restart stats = %+v, want 2 restores and nothing else", s)
	}
	for _, name := range r2.Names() {
		sn, err := r2.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		st := sn.ClosureStatus()
		if st.State != closure.StateReady || !st.Restored {
			t.Fatalf("%s: closure = %+v, want ready+restored at LoadDir return", name, st)
		}
		// Differential check: every restored cell is bit-for-bit what
		// a fresh build against the live snapshot would materialize.
		fresh, err := closure.Build(context.Background(), name, sn.Generation(), sn.Completer(), closure.NewBudget(0))
		if err != nil {
			t.Fatal(err)
		}
		restored := sn.Closure().Index()
		cells := 0
		fresh.Walk(func(anchor string, root schema.ClassID, want *core.Result) {
			cells++
			have, ok := restored.Lookup(root, anchor)
			if !ok || !reflect.DeepEqual(have, want) {
				t.Fatalf("%s: cell (%d, %q) differs after restore", name, root, anchor)
			}
		})
		if cells == 0 || restored.Cells() != cells {
			t.Fatalf("%s: cell counts differ (fresh %d, restored %d)", name, cells, restored.Cells())
		}
		sn.Release()
	}
}

func TestPersistStaleSchemaChangeRecompiles(t *testing.T) {
	dir := t.TempDir()
	data := t.TempDir()
	writeSchemaDir(t, dir, map[string]string{"main": schemaV1})
	r1, ps1 := persistReg(t, dir, data)
	waitWarmSaved(t, r1, ps1)

	// The schema changes between runs: the durable file is stale and
	// must be recompiled and replaced — never served, and not
	// quarantined: stale is the expected miss.
	writeSchemaDir(t, dir, map[string]string{"main": schemaV2})
	r2, ps2 := persistReg(t, dir, data)
	if s := ps2.Stats(); s.Restores != 0 || s.Recompiles != 1 || s.Quarantines != 0 {
		t.Fatalf("stale-boot stats = %+v, want a recompile and no quarantine", s)
	}
	sn, err := r2.Acquire("main")
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	if got := completeOne(t, sn, "a~name"); !strings.Contains(got, "link") {
		t.Fatalf("post-quarantine answer %q came from the stale schema", got)
	}
	waitWarmSaved(t, r2, ps2)
	f, err := ps2.Load("main")
	if err != nil || f == nil {
		t.Fatalf("re-saved file: (%v, %v)", f, err)
	}
}

// TestPersistReloadsLeaveNoQuarantine: every schema-changing reload
// finds the previous schema's file on disk. That file is stale, an
// expected miss: it stays for the coming save to replace, and nothing
// lands in quarantine/ however often the schema changes.
func TestPersistReloadsLeaveNoQuarantine(t *testing.T) {
	dir := t.TempDir()
	data := t.TempDir()
	writeSchemaDir(t, dir, map[string]string{"main": schemaV1})
	r, ps := persistReg(t, dir, data)
	waitWarmSaved(t, r, ps)
	const reloads = 6
	for i := 0; i < reloads; i++ {
		text := schemaV2
		if i%2 == 1 {
			text = schemaV1
		}
		writeSchemaDir(t, dir, map[string]string{"main": text})
		if err := r.Reload(); err != nil {
			t.Fatal(err)
		}
		waitWarmSaved(t, r, ps)
	}
	left, err := os.ReadDir(filepath.Join(data, persist.QuarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d files in quarantine after %d reloads, want none", len(left), reloads)
	}
	if s := ps.Stats(); s.Quarantines != 0 || s.Recompiles != reloads+1 || s.Saves != reloads+1 {
		t.Errorf("stats = %+v, want %d recompiles and saves, no quarantine", s, reloads+1)
	}
}

func TestPersistReloadDropsDeletedName(t *testing.T) {
	dir := t.TempDir()
	data := t.TempDir()
	writeSchemaDir(t, dir, map[string]string{"alpha": schemaV1, "beta": schemaV2})
	r, ps := persistReg(t, dir, data)
	waitWarmSaved(t, r, ps)
	if err := os.Remove(filepath.Join(dir, "beta.sdl")); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if f, err := ps.Load("beta"); f != nil || err != nil {
		t.Fatalf("dropped schema still has durable state: (%v, %v)", f, err)
	}
	waitWarmSaved(t, r, ps)
	if f, err := ps.Load("alpha"); f == nil || err != nil {
		t.Fatalf("surviving schema lost its durable state: (%v, %v)", f, err)
	}
}

// TestReloadRacingPersist is the -race drill: hot reloads racing the
// background warm/persist pipeline. Afterwards no temp files leak,
// the quarantine is untouched (a racing save must never be mistaken
// for corruption), the on-disk generation equals the live generation
// (stale saves were gated, not written), and the registry drains.
func TestReloadRacingPersist(t *testing.T) {
	dir := t.TempDir()
	data := t.TempDir()
	writeSchemaDir(t, dir, map[string]string{"alpha": schemaV1, "beta": schemaV2})
	r, ps := persistReg(t, dir, data)
	for i := 0; i < 25; i++ {
		if err := r.Reload(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	waitFor(t, "superseded snapshots to drain", func() bool { return r.Live() == 2 })
	waitWarmSaved(t, r, ps)

	entries, err := os.ReadDir(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Errorf("leaked temp file %s", ent.Name())
		}
	}
	if q, _ := os.ReadDir(filepath.Join(data, persist.QuarantineDir)); len(q) != 0 {
		t.Errorf("quarantine captured %d files during clean reloads", len(q))
	}
	for _, name := range r.Names() {
		sn, err := r.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, st := sn.Generation(), sn.ClosureStatus()
		s, opts := sn.Schema(), sn.Completer().Options()
		sn.Release()
		f, err := ps.Load(name)
		if err != nil || f == nil {
			t.Fatalf("%s: durable file after churn: (%v, %v)", name, f, err)
		}
		if st.Restored {
			// The last reload restored its closure from a file an
			// earlier generation saved, and a restored closure is not
			// saved again: the file must still describe the live schema
			// and options, and be no newer than the live generation.
			if err := f.Validate(name, s, opts); err != nil {
				t.Errorf("%s: restored from a file that does not match the live snapshot: %v", name, err)
			}
			if f.Generation > gen {
				t.Errorf("%s: file generation %d > live generation %d", name, f.Generation, gen)
			}
			continue
		}
		if f.Generation != gen {
			t.Errorf("%s: file generation %d != live generation %d", name, f.Generation, gen)
		}
	}
	if s := ps.Stats(); s.SaveFailures != 0 {
		t.Errorf("stats = %+v, want no save failures", s)
	}
}
