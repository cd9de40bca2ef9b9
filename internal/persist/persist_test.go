package persist_test

// The contract this suite locks, in the order the recovery state
// machine runs it: (1) a captured File round-trips through the format
// unchanged (the restored cells' bit-for-bit equality with the kernel
// is the differential harness's, in internal/core);
// (2) every way a file can go bad (bit flip, truncation, version
// bump, schema drift, option drift, injected I/O faults) is detected,
// quarantined, and counted, and never surfaces as anything worse than
// a recompile; (3) the write path is atomic and generation-gated.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/schema"
)

func genSchema(t *testing.T, seed int64, classes int) *schema.Schema {
	t.Helper()
	w, err := cupid.Generate(cupid.Config{
		Seed:     seed,
		Classes:  classes,
		RelPairs: classes - 1 + classes/2 + int(seed)%5,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w.Schema
}

// buildIndex materializes the full closure of s under opts.
func buildIndex(t *testing.T, name string, gen uint64, s *schema.Schema, opts core.Options) (*closure.Index, *core.Completer) {
	t.Helper()
	cmp := core.New(s, opts)
	ix, err := closure.Build(context.Background(), name, gen, cmp, closure.NewBudget(0))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, cmp
}

// capture builds the durable File for one warmed index.
func capture(t *testing.T, name string, s *schema.Schema, opts core.Options, gen uint64, ix *closure.Index) *persist.File {
	t.Helper()
	f, err := persist.Capture(name, s, opts, gen, 1754600000, ix)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	return f
}

// TestRoundTripOracle: Capture → Encode → Decode → Validate →
// RestoreIndex must reproduce the captured File and the index's
// accounting, over a sweep of generated schemas and option mixes.
// That every restored cell is bit-for-bit the kernel's one-shot Result
// is proven by the differential harness of internal/core
// (harness_test.go).
func TestRoundTripOracle(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for i := int64(0); i < n; i++ {
		opts := core.Options{E: 1 + int(i)%3, NoPreemption: i%2 == 0, PreferSpecific: i%3 == 0}
		if i%4 == 0 {
			opts.MaxPaths = 3
		}
		s := genSchema(t, i, 3+int(i)%14)
		gen := uint64(i + 1)
		ix, _ := buildIndex(t, "rt", gen, s, opts)

		f := capture(t, "rt", s, opts, gen, ix)
		got, err := persist.Decode(f.Encode())
		if err != nil {
			t.Fatalf("schema %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("schema %d: decoded File differs from captured File", i)
		}
		if err := got.Validate("rt", s, opts); err != nil {
			t.Fatalf("schema %d: Validate: %v", i, err)
		}
		restored, err := got.RestoreIndex(s, gen+100)
		if err != nil {
			t.Fatalf("schema %d: RestoreIndex: %v", i, err)
		}
		if !restored.Restored() {
			t.Fatalf("schema %d: restored index not marked Restored", i)
		}
		if restored.Generation() != gen+100 {
			t.Fatalf("schema %d: restored generation = %d, want %d", i, restored.Generation(), gen+100)
		}
		if restored.Cells() != ix.Cells() || restored.Anchors() != ix.Anchors() || restored.Bytes() != ix.Bytes() {
			t.Fatalf("schema %d: accounting drifted: cells %d→%d anchors %d→%d bytes %d→%d",
				i, ix.Cells(), restored.Cells(), ix.Anchors(), restored.Anchors(), ix.Bytes(), restored.Bytes())
		}
		if ix.Cells() == 0 {
			t.Fatalf("schema %d: empty index — the sweep is vacuous", i)
		}
	}
}

// TestEncodeDeterministic: two captures of the same index are
// byte-identical (Walk order is pinned), so repeated saves cannot
// churn the file.
func TestEncodeDeterministic(t *testing.T) {
	s := genSchema(t, 3, 8)
	opts := core.Options{E: 1}
	ix, _ := buildIndex(t, "det", 1, s, opts)
	a := capture(t, "det", s, opts, 1, ix).Encode()
	b := capture(t, "det", s, opts, 1, ix).Encode()
	if string(a) != string(b) {
		t.Fatal("two encodes of the same index differ")
	}
}

func openStore(t *testing.T) *persist.Store {
	t.Helper()
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func saveOne(t *testing.T, st *persist.Store, name string, s *schema.Schema, opts core.Options, gen uint64) *closure.Index {
	t.Helper()
	ix, _ := buildIndex(t, name, gen, s, opts)
	if err := st.Save(capture(t, name, s, opts, gen, ix)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return ix
}

func TestStoreSaveRestore(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 7, 9)
	opts := core.Options{E: 2}
	ix := saveOne(t, st, "alpha", s, opts, 4)

	restored, err := st.Restore("alpha", s, opts, 11)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored == nil {
		t.Fatal("Restore returned no index for a freshly saved file")
	}
	if restored.Cells() != ix.Cells() {
		t.Fatalf("restored cells = %d, want %d", restored.Cells(), ix.Cells())
	}
	stats := st.Stats()
	if stats.Saves != 1 || stats.Restores != 1 || stats.Recompiles != 0 || stats.Quarantines != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The restore adopted the file for the snapshot serving as gen 11:
	// the generation ledger follows, so SavedGeneration answers
	// truthfully on a restored boot (where nothing was re-saved).
	if gen, ok := st.SavedGeneration("alpha"); !ok || gen != 11 {
		t.Fatalf("SavedGeneration = (%d, %v), want (11, true)", gen, ok)
	}
}

func TestStoreColdMiss(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 1, 5)
	ix, err := st.Restore("ghost", s, core.Options{E: 1}, 1)
	if ix != nil || err != nil {
		t.Fatalf("cold miss = (%v, %v), want (nil, nil)", ix, err)
	}
	stats := st.Stats()
	if stats.Recompiles != 1 || stats.Quarantines != 0 {
		t.Fatalf("stats = %+v, want one silent recompile", stats)
	}
}

// corruptions maps a name to a mutation of a valid file image; every
// one must be caught by Decode/Validate, quarantined, and fall back
// to recompile.
func TestStoreQuarantinesBadFiles(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string // substring of the restore error
	}{
		{"bitflip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, "checksum"},
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }, "checksum"},
		{"emptied", func(b []byte) []byte { return b[:4] }, "truncated"},
		{"version", func(b []byte) []byte { copy(b, "PCSNAP99"); return b }, "version"},
		{"garbage", func(b []byte) []byte {
			for i := range b {
				b[i] = 0x5a
			}
			return b
		}, "magic"},
	}
	s := genSchema(t, 9, 7)
	opts := core.Options{E: 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t)
			saveOne(t, st, "bad", s, opts, 1)
			path := filepath.Join(st.Dir(), "bad"+persist.FileSuffix)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			ix, err := st.Restore("bad", s, opts, 2)
			if ix != nil {
				t.Fatal("corrupt file produced an index")
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error = %v, want containing %q", err, tc.want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt file still visible under its serving name")
			}
			q, err := os.ReadDir(filepath.Join(st.Dir(), persist.QuarantineDir))
			if err != nil || len(q) != 1 {
				t.Fatalf("quarantine holds %d files (err %v), want 1", len(q), err)
			}
			stats := st.Stats()
			if stats.Quarantines != 1 || stats.Recompiles != 1 {
				t.Fatalf("stats = %+v", stats)
			}
			// The next boot starts clean: cold miss, no second quarantine.
			if ix, err := st.Restore("bad", s, opts, 3); ix != nil || err != nil {
				t.Fatalf("post-quarantine restore = (%v, %v), want clean miss", ix, err)
			}
		})
	}
}

func TestStoreStaleSchema(t *testing.T) {
	st := openStore(t)
	opts := core.Options{E: 1}
	sA := genSchema(t, 2, 6)
	saveOne(t, st, "s", sA, opts, 1)

	sB := genSchema(t, 3, 6) // same size, different graph
	ix, err := st.Restore("s", sB, opts, 2)
	if ix != nil || err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("restore against changed schema = (%v, %v), want stale quarantine", ix, err)
	}
	// Stale is the expected miss, not damage: the file stays for the
	// coming save to replace.
	if st.Stats().Quarantines != 0 {
		t.Fatalf("stats = %+v", st.Stats())
	}
}

func TestStoreStaleOptions(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 2, 6)
	saveOne(t, st, "s", s, core.Options{E: 1}, 1)
	ix, err := st.Restore("s", s, core.Options{E: 2}, 2)
	if ix != nil || err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("restore under changed options = (%v, %v), want stale quarantine", ix, err)
	}
}

// TestFingerprintCoversAnswerOptions: every answer-affecting Options
// field must move the fingerprint — a field silently missing here is
// how a stale cell gets served. Every exported field but Tracer, which
// observes a search without changing it, must have a variant, so a
// field added to Options cannot drop out of the identity unnoticed.
func TestFingerprintCoversAnswerOptions(t *testing.T) {
	base := persist.Fingerprint(core.Options{})
	variants := []core.Options{
		{E: 2},
		{Caution: core.CautionExtendedMode},
		{SemLenSlack: true},
		{NoPreemption: true},
		{DisableBestT: true},
		{DisableBestU: true},
		{NoEarlyTarget: true},
		{MaxPaths: 5},
		{PreferSpecific: true},
		{MaxCalls: 100},
		{Deadline: 1},
		{Exclude: map[schema.ClassID]bool{3: true}},
	}
	for i, o := range variants {
		if persist.Fingerprint(o) == base {
			t.Errorf("variant %d (%+v) does not change the fingerprint", i, o)
		}
	}
	fields := reflect.TypeOf(core.Options{})
	for i := 0; i < fields.NumField(); i++ {
		f := fields.Field(i)
		if !f.IsExported() || f.Name == "Tracer" {
			continue
		}
		covered := false
		for _, o := range variants {
			if !reflect.ValueOf(o).Field(i).IsZero() {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("core.Options.%s has no variant: add one here, and to Fingerprint if it can change an answer", f.Name)
		}
	}
	// Exclude ordering is canonical: equal sets fingerprint equally.
	a := persist.Fingerprint(core.Options{Exclude: map[schema.ClassID]bool{1: true, 9: true}})
	b := persist.Fingerprint(core.Options{Exclude: map[schema.ClassID]bool{9: true, 1: true}})
	if a != b {
		t.Error("equal Exclude sets fingerprint differently")
	}
}

// TestFingerprintStable pins the closure identity of the engine
// presets byte for byte, "parallel=0" included, so files saved by
// earlier builds keep restoring instead of being quarantined as stale.
func TestFingerprintStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"paper", core.Paper(), "e=1;caution=0;slack=false;nopre=false;nobt=false;nobu=false;noet=false;maxpaths=0;prefspec=false;maxcalls=0;deadline=0;parallel=0"},
		{"exact", core.Exact(), "e=1;caution=0;slack=false;nopre=false;nobt=false;nobu=true;noet=false;maxpaths=0;prefspec=false;maxcalls=0;deadline=0;parallel=0"},
	} {
		if got := persist.Fingerprint(tc.opts); got != tc.want {
			t.Errorf("Fingerprint(%s) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestGenerationGate(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 5, 6)
	opts := core.Options{E: 1}
	saveOne(t, st, "g", s, opts, 7)
	// A straggling background save for an older generation must be
	// dropped, not roll the file back.
	ix, _ := buildIndex(t, "g", 3, s, opts)
	if err := st.Save(capture(t, "g", s, opts, 3, ix)); err != nil {
		t.Fatalf("stale save errored: %v", err)
	}
	if st.Stats().SavesSkipped != 1 {
		t.Fatalf("stats = %+v, want one skipped save", st.Stats())
	}
	f, err := st.Load("g")
	if err != nil || f == nil || f.Generation != 7 {
		t.Fatalf("file generation = %v (err %v), want 7", f, err)
	}
}

func TestDelete(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 5, 5)
	saveOne(t, st, "d", s, core.Options{E: 1}, 1)
	if err := st.Delete("d"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if f, err := st.Load("d"); f != nil || err != nil {
		t.Fatalf("Load after Delete = (%v, %v)", f, err)
	}
	if _, ok := st.SavedGeneration("d"); ok {
		t.Fatal("SavedGeneration survives Delete")
	}
	if err := st.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of absent file: %v", err)
	}
}

func TestUnsafeNames(t *testing.T) {
	st := openStore(t)
	for _, name := range []string{"", "../evil", "a/b", `a\b`} {
		if _, err := st.Load(name); err == nil {
			t.Errorf("Load(%q) accepted an unsafe name", name)
		}
	}
}

// TestShortWriteLeavesCrashImage: an injected torn write fails the
// save, leaves the torn temp file (the crash image), and never
// touches the live file; the next Open sweeps the debris.
func TestShortWriteLeavesCrashImage(t *testing.T) {
	dir := t.TempDir()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := genSchema(t, 6, 7)
	opts := core.Options{E: 1}
	saveOne(t, st, "w", s, opts, 1)
	good, _ := os.ReadFile(filepath.Join(dir, "w"+persist.FileSuffix))

	faultinject.Arm(faultinject.Config{Seed: 3, ShortWriteProb: 1, Points: map[string]bool{persist.FaultWrite: true}})
	defer faultinject.Disarm()
	ix, _ := buildIndex(t, "w", 2, s, opts)
	if err := st.Save(capture(t, "w", s, opts, 2, ix)); err == nil {
		t.Fatal("torn write reported success")
	}
	faultinject.Disarm()

	now, _ := os.ReadFile(filepath.Join(dir, "w"+persist.FileSuffix))
	if string(now) != string(good) {
		t.Fatal("torn write disturbed the live file")
	}
	tmps := 0
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			tmps++
		}
	}
	if tmps != 1 {
		t.Fatalf("found %d torn temp files, want exactly 1", tmps)
	}
	if st.Stats().SaveFailures != 1 {
		t.Fatalf("stats = %+v", st.Stats())
	}

	// "Reboot": a fresh Open sweeps the crash image and recovery
	// serves the generation-1 file.
	st2, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().TmpSwept != 1 {
		t.Fatalf("swept %d temp files, want 1", st2.Stats().TmpSwept)
	}
	if ix, err := st2.Restore("w", s, opts, 5); ix == nil || err != nil {
		t.Fatalf("post-crash restore = (%v, %v)", ix, err)
	}
}

func TestFsyncFaultFailsCleanly(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 6, 6)
	opts := core.Options{E: 1}
	faultinject.Arm(faultinject.Config{Seed: 3, ErrorProb: 1, Points: map[string]bool{persist.FaultFsync: true}})
	defer faultinject.Disarm()
	ix, _ := buildIndex(t, "f", 1, s, opts)
	if err := st.Save(capture(t, "f", s, opts, 1, ix)); err == nil {
		t.Fatal("fsync fault reported success")
	}
	faultinject.Disarm()
	entries, _ := os.ReadDir(st.Dir())
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Fatal("fsync failure leaked a temp file")
		}
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "f"+persist.FileSuffix)); !os.IsNotExist(err) {
		t.Fatal("failed save published a file")
	}
}

func TestLoadFaultQuarantines(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 8, 6)
	opts := core.Options{E: 1}
	saveOne(t, st, "l", s, opts, 1)
	faultinject.Arm(faultinject.Config{Seed: 3, ErrorProb: 1, Points: map[string]bool{persist.FaultLoad: true}})
	ix, err := st.Restore("l", s, opts, 2)
	faultinject.Disarm()
	if ix != nil || err == nil {
		t.Fatalf("injected load fault = (%v, %v), want failure", ix, err)
	}
	stats := st.Stats()
	if stats.Quarantines != 1 || stats.Recompiles != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The quarantined file is preserved for post-mortem, not deleted.
	q, _ := os.ReadDir(filepath.Join(st.Dir(), persist.QuarantineDir))
	if len(q) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(q))
	}
}

// TestFlushWaitsForSaves: Flush must not return while a Save is in
// flight — the SIGTERM drain guarantee.
func TestFlushWaitsForSaves(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 4, 8)
	opts := core.Options{E: 1}
	files := make([]*persist.File, 6)
	for i := range files {
		gen := uint64(i + 1)
		ix, _ := buildIndex(t, "flush", gen, s, opts)
		files[i] = capture(t, "flush", s, opts, gen, ix)
	}
	var wg sync.WaitGroup
	for _, f := range files {
		wg.Add(1)
		go func(f *persist.File) {
			defer wg.Done()
			st.Save(f)
		}(f)
	}
	st.Flush()
	wg.Wait()
	st.Flush() // idempotent when idle
	stats := st.Stats()
	if stats.Saves+stats.SavesSkipped != 6 {
		t.Fatalf("stats = %+v, want all 6 saves accounted", stats)
	}
	// Whatever interleaving ran, the surviving file is the newest
	// generation that actually wrote.
	f, err := st.Load("flush")
	if err != nil || f == nil {
		t.Fatalf("Load: (%v, %v)", f, err)
	}
	if gen, _ := st.SavedGeneration("flush"); f.Generation != gen {
		t.Fatalf("file generation %d != gate generation %d", f.Generation, gen)
	}
}

// TestFileWithoutClosure: a File captured before the closure was
// ready validates fine but restores as a silent recompile.
func TestFileWithoutClosure(t *testing.T) {
	st := openStore(t)
	s := genSchema(t, 2, 5)
	opts := core.Options{E: 1}
	f := capture(t, "nc", s, opts, 1, nil)
	if err := st.Save(f); err != nil {
		t.Fatalf("Save: %v", err)
	}
	ix, err := st.Restore("nc", s, opts, 2)
	if ix != nil || err != nil {
		t.Fatalf("closure-less restore = (%v, %v), want silent miss", ix, err)
	}
	if st.Stats().Recompiles != 1 || st.Stats().Quarantines != 0 {
		t.Fatalf("stats = %+v", st.Stats())
	}
}
