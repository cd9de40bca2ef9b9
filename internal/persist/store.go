package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/schema"
)

// QuarantineDir is the subdirectory of the data directory that
// receives damaged snapshot files; stale ones stay put (see Restore).
const QuarantineDir = "quarantine"

// tmpPrefix marks in-progress writes. Anything carrying it at Open
// time is the debris of a crash mid-write and is swept.
const tmpPrefix = ".tmp-"

// Fault-injection point names consulted by the Store (see
// internal/faultinject): the payload write (which also honours the
// short-write injector), the fsync before the atomic rename, and the
// top of every snapshot load.
const (
	FaultWrite = "persist.write"
	FaultFsync = "persist.fsync"
	FaultLoad  = "persist.load"
)

// Stats counts recovery and persistence outcomes since Open. Every
// field is monotonic; /stats embeds the struct directly.
type Stats struct {
	// Saves counts snapshot files durably written.
	Saves uint64 `json:"saves"`
	// SaveFailures counts writes that failed (disk faults included);
	// the previous file, if any, is still intact.
	SaveFailures uint64 `json:"saveFailures"`
	// SavesSkipped counts saves dropped by the generation gate — a
	// background persist that lost the race against a newer reload
	// and must not overwrite the newer file.
	SavesSkipped uint64 `json:"savesSkipped"`
	// Restores counts snapshots whose closure was served from disk.
	Restores uint64 `json:"restores"`
	// Recompiles counts snapshots that fell back to SDL recompile
	// (missing, corrupt, or stale durable state) — the clean-restart
	// drill asserts this stays zero.
	Recompiles uint64 `json:"recompiles"`
	// Quarantines counts files moved aside as damaged (not stale).
	Quarantines uint64 `json:"quarantines"`
	// TmpSwept counts crash-debris temp files removed at Open.
	TmpSwept uint64 `json:"tmpSwept"`
}

// Observer receives persistence lifecycle events; the server wires it
// to its metric families and warning log. Methods may be called
// concurrently.
type Observer interface {
	// PersistSaved fires after a snapshot file is durably on disk.
	PersistSaved(name string, gen uint64, bytes int, elapsed time.Duration)
	// PersistSaveFailed fires when a write fails; err is the cause.
	PersistSaveFailed(name string, err error)
	// PersistRestored fires when a snapshot's closure is restored
	// from disk instead of rebuilt.
	PersistRestored(name string, gen uint64, elapsed time.Duration)
	// PersistQuarantined fires when a file is moved to quarantine —
	// the counted warning of the recovery state machine.
	PersistQuarantined(name string, reason string)
}

// Store owns one data directory of snapshot files: atomic writes with
// a generation gate, checksum-verified recovery with quarantine
// fallback, and pending-save tracking so shutdown can drain. All
// methods are safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	cond    *sync.Cond
	pending int               // saves in flight (Flush waits for zero)
	latest  map[string]uint64 // name → newest generation scheduled for save
	obs     Observer

	writeMu sync.Mutex // serializes on-disk mutations per store

	saves        atomic.Uint64
	saveFailures atomic.Uint64
	savesSkipped atomic.Uint64
	restores     atomic.Uint64
	recompiles   atomic.Uint64
	quarantines  atomic.Uint64
	tmpSwept     atomic.Uint64
}

// Open prepares dir as a snapshot data directory: it is created along
// with its quarantine subdirectory, and temp files left by a previous
// crash are swept (their renames never happened, so they shadow
// nothing).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	st := &Store{dir: dir, latest: make(map[string]uint64)}
	st.cond = sync.NewCond(&st.mu)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasPrefix(ent.Name(), tmpPrefix) {
			if os.Remove(filepath.Join(dir, ent.Name())) == nil {
				st.tmpSwept.Add(1)
			}
		}
	}
	return st, nil
}

// Dir returns the data directory.
func (st *Store) Dir() string { return st.dir }

// SetObserver installs (or, with nil, removes) the lifecycle
// observer. Events before installation are still counted in Stats.
func (st *Store) SetObserver(obs Observer) {
	st.mu.Lock()
	st.obs = obs
	st.mu.Unlock()
}

func (st *Store) observer() Observer {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.obs
}

// Stats returns the counters accumulated since Open.
func (st *Store) Stats() Stats {
	return Stats{
		Saves:        st.saves.Load(),
		SaveFailures: st.saveFailures.Load(),
		SavesSkipped: st.savesSkipped.Load(),
		Restores:     st.restores.Load(),
		Recompiles:   st.recompiles.Load(),
		Quarantines:  st.quarantines.Load(),
		TmpSwept:     st.tmpSwept.Load(),
	}
}

// SavedGeneration returns the newest generation scheduled for save
// under name this process, and whether one exists — the /v1
// persistStatus source.
func (st *Store) SavedGeneration(name string) (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	gen, ok := st.latest[name]
	return gen, ok
}

// path returns the live file path for name, refusing names that could
// escape the data directory.
func (st *Store) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name != filepath.Base(name) {
		return "", fmt.Errorf("persist: unsafe schema name %q", name)
	}
	return filepath.Join(st.dir, name+FileSuffix), nil
}

// Save durably writes f under its schema name: encode, temp file in
// the same directory, payload write, fsync, atomic rename, directory
// fsync. A crash at any point leaves either the previous file or the
// new one visible, never a mixture. Saves are gated by generation —
// a save for an older generation than one already written (or being
// written) under the same name is silently skipped, so a background
// persist racing a reload can never roll the file back. Pending saves
// are tracked; Flush waits for them.
func (st *Store) Save(f *File) error {
	st.mu.Lock()
	st.pending++
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.pending--
		if st.pending == 0 {
			st.cond.Broadcast()
		}
		st.mu.Unlock()
	}()

	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	st.mu.Lock()
	if last, ok := st.latest[f.Name]; ok && last > f.Generation {
		st.mu.Unlock()
		st.savesSkipped.Add(1)
		return nil
	}
	st.latest[f.Name] = f.Generation
	st.mu.Unlock()

	start := time.Now()
	data := f.Encode()
	err := st.writeAtomic(f.Name, data)
	if err != nil {
		st.saveFailures.Add(1)
		if obs := st.observer(); obs != nil {
			obs.PersistSaveFailed(f.Name, err)
		}
		return err
	}
	st.saves.Add(1)
	if obs := st.observer(); obs != nil {
		obs.PersistSaved(f.Name, f.Generation, len(data), time.Since(start))
	}
	return nil
}

// writeAtomic performs the temp + fsync + rename dance, consulting
// the persist.write and persist.fsync fault points. An injected short
// write deliberately leaves its torn temp file behind — that is the
// on-disk image of a crash mid-write, and Open's sweep (plus the
// checksum, had the rename somehow happened) is what the chaos drill
// exercises against it.
func (st *Store) writeAtomic(name string, data []byte) error {
	final, err := st.path(name)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, tmpPrefix+name+"-")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	discard := func(cause error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return cause
	}
	if err := faultinject.Inject(FaultWrite); err != nil {
		return discard(fmt.Errorf("persist: write %s: %w", name, err))
	}
	if k, torn := faultinject.ShortWrite(FaultWrite, len(data)); torn {
		tmp.Write(data[:k])
		tmp.Close()
		return fmt.Errorf("persist: write %s: injected short write (%d of %d bytes)", name, k, len(data))
	}
	if _, err := tmp.Write(data); err != nil {
		return discard(fmt.Errorf("persist: write %s: %w", name, err))
	}
	if err := faultinject.Inject(FaultFsync); err != nil {
		return discard(fmt.Errorf("persist: fsync %s: %w", name, err))
	}
	if err := tmp.Sync(); err != nil {
		return discard(fmt.Errorf("persist: fsync %s: %w", name, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: close %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: publish %s: %w", name, err)
	}
	return syncDir(st.dir)
}

// syncDir fsyncs a directory so the rename itself is durable. Best
// effort on filesystems that refuse directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// readImage reads the raw on-disk image for name. A missing file is
// (nil, nil) — the ordinary cold miss. It consults the persist.load
// fault point.
func (st *Store) readImage(name string) ([]byte, error) {
	path, err := st.path(name)
	if err != nil {
		return nil, err
	}
	if err := faultinject.Inject(FaultLoad); err != nil {
		return nil, fmt.Errorf("persist: load %s: %w", name, err)
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: load %s: %w", name, err)
	}
	return data, nil
}

// Load reads and decodes the snapshot file for name, verifying magic
// and checksum. A missing file is (nil, nil) — the ordinary cold
// miss.
func (st *Store) Load(name string) (*File, error) {
	data, err := st.readImage(name)
	if err != nil || data == nil {
		return nil, err
	}
	return Decode(data)
}

// Restore is the recovery state machine for one snapshot about to
// serve as (name, gen): load → verify checksum → validate identity →
// rebuild the index. A missing file, a valid file without a closure
// payload, or any failure returns a nil index and counts a recompile
// — the caller falls back to warming by search, so bad durable state
// can never fail a boot. A stale file is the expected miss of a
// schema-changing reload and stays for the coming save to replace; a
// damaged one is also quarantined with a counted warning. The returned
// error describes why the restore missed (nil on the silent misses).
func (st *Store) Restore(name string, s *schema.Schema, opts core.Options, gen uint64) (*closure.Index, error) {
	start := time.Now()
	data, err := st.readImage(name)
	if err != nil {
		st.quarantine(name, err)
		st.recompiles.Add(1)
		return nil, err
	}
	if data == nil {
		st.recompiles.Add(1)
		return nil, nil
	}
	_, ix, err := RestoreImage(data, name, s, opts, gen)
	if err != nil {
		if !errors.Is(err, errStale) {
			st.quarantine(name, err)
		}
		st.recompiles.Add(1)
		return nil, err
	}
	if ix == nil {
		// Valid file, no closure payload: nothing durable to serve from.
		st.recompiles.Add(1)
		return nil, nil
	}
	st.restores.Add(1)
	// A successful restore proves the durable file matches the snapshot
	// now serving as gen: record that in the generation ledger, so
	// SavedGeneration answers truthfully on a restored boot and the
	// gate's ordering starts from the restored generation. Monotonic max
	// only — a racing save for a newer reload must not be rolled back.
	st.mu.Lock()
	if st.latest[name] < gen {
		st.latest[name] = gen
	}
	st.mu.Unlock()
	if obs := st.observer(); obs != nil {
		obs.PersistRestored(name, gen, time.Since(start))
	}
	return ix, nil
}

// quarantine moves name's live file (if present) into the quarantine
// subdirectory under a unique suffix, preserving it for post-mortem
// while guaranteeing the next boot cannot trip on the same bytes.
func (st *Store) quarantine(name string, cause error) {
	path, err := st.path(name)
	if err != nil {
		return
	}
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if _, err := os.Stat(path); err != nil {
		return // nothing on disk to move (e.g. an injected load fault on a cold miss)
	}
	dst := filepath.Join(st.dir, QuarantineDir,
		fmt.Sprintf("%s%s.%d", name, FileSuffix, time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		// Last resort: a file we can neither trust nor move must not
		// poison every future boot.
		os.Remove(path)
	}
	st.quarantines.Add(1)
	if obs := st.observer(); obs != nil {
		obs.PersistQuarantined(name, cause.Error())
	}
}

// Delete removes name's live snapshot file — called when a reload
// drops the name entirely, so durable state never outlives the schema
// it belongs to. Removing an absent file is not an error.
func (st *Store) Delete(name string) error {
	path, err := st.path(name)
	if err != nil {
		return err
	}
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	st.mu.Lock()
	delete(st.latest, name)
	st.mu.Unlock()
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: delete %s: %w", name, err)
	}
	return nil
}

// Flush blocks until every in-flight Save has completed — the SIGTERM
// drain hook, so a clean shutdown never loses a warm closure that was
// still being written.
func (st *Store) Flush() {
	st.mu.Lock()
	for st.pending > 0 {
		st.cond.Wait()
	}
	st.mu.Unlock()
}
