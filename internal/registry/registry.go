// Package registry is the multi-schema subsystem of the serving path:
// a concurrent registry of named schemas, each served through an
// immutable refcounted Snapshot that bundles the schema graph with its
// long-lived search Completer (compiled transition indexes + pooled
// engines).
//
// The paper's disambiguation mechanism is schema-parameterized —
// the CON tables, the ≺ order, and Isa preemption are all evaluated
// against one schema graph — so a multi-tenant server must pin every
// request to one consistent schema state for its whole lifetime. The
// registry provides that pin:
//
//   - Acquire(name) returns the current Snapshot of the named schema
//     with its refcount incremented; the caller searches against it and
//     then calls Release exactly once.
//   - Reload (SIGHUP, POST /v1/schemas/reload, or a programmatic call)
//     parses the SDL directory into a fresh generation of snapshots and
//     swaps the table atomically. In-flight searches finish on the
//     snapshot they acquired; a superseded snapshot is retired when its
//     refcount drains, at which point its closure index returns its
//     budget bytes.
//
// The refcount protocol is the standard epoch trick: every snapshot is
// born with one reference owned by the registry table. Acquire uses a
// CAS loop that refuses to resurrect a snapshot whose count already hit
// zero — if that happens the table has necessarily been swapped, and
// Acquire rereads it. Release decrements; the transition to zero is
// taken by exactly one caller, which retires the snapshot.
//
// Reload consults the "registry.reload" fault-injection point, so
// chaos drills can exercise the failure mode "reload breaks mid-swap":
// a failed reload leaves the previous generation serving, untouched.
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
)

// ErrNoDir is returned by Reload when the registry has no SDL
// directory to reload from (it was populated programmatically).
var ErrNoDir = errors.New("registry: no schemas directory configured")

// ErrUnknownSchema wraps lookups of names the registry does not serve;
// match with errors.Is to map it to HTTP 404.
var ErrUnknownSchema = errors.New("registry: unknown schema")

// FaultPoint is the faultinject point name consulted at the top of
// every Reload.
const FaultPoint = "registry.reload"

// table is one immutable generation of the registry: the snapshot set
// visible to Acquire between two swaps.
type table struct {
	byName      map[string]*Snapshot
	names       []string // sorted
	defaultName string
	gen         uint64
}

// Registry is a concurrent, hot-reloadable set of named schemas. All
// methods are safe for concurrent use; reloads serialize behind an
// internal mutex while reads stay lock-free (one atomic pointer load
// plus the snapshot refcount CAS).
type Registry struct {
	opts core.Options

	mu      sync.Mutex // serializes mutations (Reload, Install, SetDefault)
	dir     string
	closure *closure.Builder // nil: closure warming disabled
	persist *persist.Store   // nil: durable snapshots disabled

	tab  atomic.Pointer[table]
	gen  atomic.Uint64 // last generation number handed out
	live atomic.Int64  // snapshots created and not yet drained

	// onRetire, when non-nil, observes every snapshot whose refcount
	// drained (metrics hook; called outside all registry locks).
	onRetire atomic.Pointer[func(*Snapshot)]
}

// New returns an empty registry whose snapshots will search with the
// given engine options.
func New(opts core.Options) *Registry {
	r := &Registry{opts: opts}
	r.tab.Store(&table{byName: map[string]*Snapshot{}})
	return r
}

// Static returns a single-schema registry — the adapter that lets the
// single-tenant construction (one schema, optionally one object store)
// run on the snapshot lifecycle. Its Reload returns ErrNoDir.
func Static(s *schema.Schema, store *objstore.Store, opts core.Options) *Registry {
	r := New(opts)
	r.Install(s.Name(), s, store)
	return r
}

// Options returns the engine options every snapshot's Completer is
// built with.
func (r *Registry) Options() core.Options { return r.opts }

// SetDir configures the SDL directory Reload parses. It does not load
// anything by itself; call Reload.
func (r *Registry) SetDir(dir string) {
	r.mu.Lock()
	r.dir = dir
	r.mu.Unlock()
}

// Dir returns the configured SDL directory ("" when none).
func (r *Registry) Dir() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}

// OnRetire installs fn as the retirement observer: it is called once
// per snapshot after the snapshot's refcount drained and its resources
// were released. Pass nil to remove the observer.
func (r *Registry) OnRetire(fn func(*Snapshot)) {
	if fn == nil {
		r.onRetire.Store(nil)
		return
	}
	r.onRetire.Store(&fn)
}

// nextGen allocates a generation number. Generations are strictly
// increasing across the whole registry, never per name: a snapshot's
// generation therefore identifies one load event globally, which is
// what cache shards and singleflight keys want.
func (r *Registry) nextGen() uint64 { return r.gen.Add(1) }

// newSnapshot builds a snapshot (with its long-lived Completer) at a
// fresh generation, holding the registry's own reference, and — when
// closure warming is enabled — queues its all-pairs build. prev, when
// non-nil, is the snapshot this one supersedes under the same name;
// its ready closure (if any) seeds edge-granular cell reuse. The
// predecessor's index and schema are captured here, synchronously,
// because the upcoming swap cancels the old handle and drops its
// index pointer.
func (r *Registry) newSnapshot(name string, s *schema.Schema, store *objstore.Store, prev *Snapshot) *Snapshot {
	sn := &Snapshot{
		name:  name,
		gen:   r.nextGen(),
		s:     s,
		cmp:   core.New(s, r.opts),
		store: store,
		reg:   r,
	}
	sn.refs.Store(1) // the table's reference
	r.live.Add(1)
	var prevIx *closure.Index
	var prevSchema *schema.Schema
	if prev != nil {
		if h := prev.cl.Load(); h != nil {
			prevIx = h.Index()
			prevSchema = prev.s
		}
	}
	r.warmClosure(sn, prevIx, prevSchema)
	return sn
}

// warmClosure gives the snapshot its closure (caller holds r.mu):
// when a persist store is enabled and holds a verified durable
// snapshot, the index is restored from disk and adopted ready
// immediately — the cold-start fast path; otherwise a background
// build is queued. The build goroutine searches through the
// snapshot's Completer, so the snapshot is pinned with an extra
// reference for the build's whole lifetime and released when the
// build goroutine exits — including the cancellation path, so a
// superseded snapshot still drains. A freshly warmed (not restored)
// closure is persisted from the same watcher goroutine before the pin
// drops, so the index it serializes cannot be retired under it.
func (r *Registry) warmClosure(sn *Snapshot, prevIx *closure.Index, prevSchema *schema.Schema) {
	b := r.closure
	if b == nil {
		sn.cl.Store(closure.Disabled("closure disabled"))
		return
	}
	if !sn.tryAcquire() {
		sn.cl.Store(closure.Disabled("snapshot drained"))
		return
	}
	if ps := r.persist; ps != nil {
		// Recovery state machine: a valid durable snapshot skips the
		// whole build; every failure mode inside Restore (missing,
		// corrupt, stale — the latter two quarantined) falls through
		// to the ordinary warm below. Startup never fails here.
		if ix, _ := ps.Restore(sn.name, sn.s, r.opts, sn.gen); ix != nil {
			if h, ok := b.Adopt(ix); ok {
				sn.cl.Store(h)
				sn.Release() // no build goroutine — nothing pins the Completer
				return
			}
		}
	}
	h := b.WarmReusing(sn.name, sn.gen, sn.cmp, prevIx, prevSchema)
	sn.cl.Store(h)
	go func() {
		<-h.Done()
		r.persistWarm(sn, h)
		sn.Release()
	}()
}

// persistWarm durably saves a freshly warmed closure. Failures are
// counted and observed inside the store; a snapshot whose build did
// not end ready (cancelled, budget, error) saves nothing.
func (r *Registry) persistWarm(sn *Snapshot, h *closure.Handle) {
	r.mu.Lock()
	ps := r.persist
	r.mu.Unlock()
	if ps == nil {
		return
	}
	st := h.Status()
	if st.State != closure.StateReady || st.Restored {
		return
	}
	ix := h.Index()
	if ix == nil {
		return
	}
	f, err := persist.Capture(sn.name, sn.s, r.opts, sn.gen, time.Now().Unix(), ix)
	if err != nil {
		return
	}
	_ = ps.Save(f)
}

// EnablePersist installs the durable snapshot store: from now on
// every snapshot install first attempts a disk restore of its closure
// and every completed warm is persisted. Call at boot before
// LoadDir/EnableClosure — durable state only participates in installs
// that happen after it.
func (r *Registry) EnablePersist(ps *persist.Store) {
	r.mu.Lock()
	r.persist = ps
	r.mu.Unlock()
}

// PersistStore returns the store installed by EnablePersist, or nil.
func (r *Registry) PersistStore() *persist.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persist
}

// EnableClosure switches on background closure warming: every
// snapshot installed from now on is warmed through b, and every
// currently served snapshot that is not already warming is warmed
// immediately. Call once at boot, before serving traffic.
func (r *Registry) EnableClosure(b *closure.Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closure = b
	if b == nil {
		return
	}
	for _, sn := range r.tab.Load().byName {
		if h := sn.cl.Load(); h == nil || h.Status().State == closure.StateDisabled {
			r.warmClosure(sn, nil, nil)
		}
	}
}

// ClosureBuilder returns the builder installed by EnableClosure, or
// nil when closure warming is off.
func (r *Registry) ClosureBuilder() *closure.Builder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closure
}

// swap publishes next and drops the registry's reference on every
// snapshot of the previous table that next does not carry forward. A
// superseded snapshot's closure is cancelled first: an in-flight
// build stops (and its partial reservation is released), a ready
// index returns its bytes to the budget. Queries already holding the
// old snapshot fall back to the search kernel — disabled is a valid
// serving state.
func (r *Registry) swap(next *table) {
	prev := r.tab.Swap(next)
	for _, sn := range prev.byName {
		if next.byName[sn.name] != sn {
			if h := sn.cl.Load(); h != nil {
				h.Cancel()
			}
			sn.Release()
		}
	}
}

// Install adds or replaces one schema programmatically (tests, the
// static single-schema server, future non-SDL sources). It bumps the
// generation of that name only; other entries keep their snapshots.
func (r *Registry) Install(name string, s *schema.Schema, store *objstore.Store) *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.tab.Load()
	next := &table{
		byName:      make(map[string]*Snapshot, len(cur.byName)+1),
		defaultName: cur.defaultName,
	}
	for n, sn := range cur.byName {
		next.byName[n] = sn
	}
	sn := r.newSnapshot(name, s, store, cur.byName[name])
	next.byName[name] = sn
	next.names = sortedNames(next.byName)
	if next.defaultName == "" {
		next.defaultName = name
	}
	next.gen = sn.gen
	r.swap(next)
	return sn
}

// SetDefault selects the schema Acquire("") resolves to. The name must
// be currently served.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.tab.Load()
	if _, ok := cur.byName[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSchema, name)
	}
	next := *cur
	next.defaultName = name
	r.swap(&next)
	return nil
}

// DefaultName returns the name Acquire("") resolves to ("" when the
// registry is empty).
func (r *Registry) DefaultName() string { return r.tab.Load().defaultName }

// Names returns the served schema names, sorted.
func (r *Registry) Names() []string {
	names := r.tab.Load().names
	out := make([]string, len(names))
	copy(out, names)
	return out
}

// Generation returns the generation of the last completed swap.
func (r *Registry) Generation() uint64 { return r.tab.Load().gen }

// Generations returns the current generation per served name — the
// liveness oracle a cache layer uses to drop shards of superseded
// snapshots.
func (r *Registry) Generations() map[string]uint64 {
	tab := r.tab.Load()
	out := make(map[string]uint64, len(tab.byName))
	for n, sn := range tab.byName {
		out[n] = sn.gen
	}
	return out
}

// Live returns the number of snapshots created and not yet drained.
// After every acquired snapshot has been released, Live equals the
// number of currently served schemas — the leak assertion of the
// hot-reload race test.
func (r *Registry) Live() int { return int(r.live.Load()) }

// Acquire resolves name ("" means the default schema) to its current
// snapshot with the refcount incremented. The caller must call
// Snapshot.Release exactly once. The error wraps ErrUnknownSchema for
// unknown names.
func (r *Registry) Acquire(name string) (*Snapshot, error) {
	for {
		tab := r.tab.Load()
		n := name
		if n == "" {
			n = tab.defaultName
		}
		sn, ok := tab.byName[n]
		if !ok {
			if name == "" {
				return nil, fmt.Errorf("%w: registry is empty", ErrUnknownSchema)
			}
			return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, name)
		}
		if sn.tryAcquire() {
			return sn, nil
		}
		// The snapshot drained between the table load and the acquire:
		// a newer table exists; reread it. (Termination: each retry
		// observes a strictly newer table, and swaps are finite.)
	}
}

// Reload reparses the SDL directory and atomically swaps the whole
// table to a fresh generation. Every named schema present in the
// directory is rebuilt — transition tables and engine pools are
// per-generation by design — and names that disappeared are dropped.
// The default schema is preserved when its name survives the reload,
// else it falls back to the first name in sorted order. On any error
// (including an injected "registry.reload" fault) the previous
// generation keeps serving, untouched.
func (r *Registry) Reload() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir == "" {
		return ErrNoDir
	}
	if err := faultinject.Inject(FaultPoint); err != nil {
		return err
	}
	loaded, err := loadDir(r.dir)
	if err != nil {
		return err
	}
	if len(loaded) == 0 {
		return fmt.Errorf("registry: no .sdl files in %s", r.dir)
	}
	cur := r.tab.Load()
	next := &table{byName: make(map[string]*Snapshot, len(loaded))}
	for name, s := range loaded {
		next.byName[name] = r.newSnapshot(name, s, nil, cur.byName[name])
	}
	next.names = sortedNames(next.byName)
	if _, ok := next.byName[cur.defaultName]; ok {
		next.defaultName = cur.defaultName
	} else {
		next.defaultName = next.names[0]
	}
	next.gen = r.gen.Load()
	r.swap(next)
	// Durable state must not outlive its schema: names the directory
	// no longer serves lose their snapshot files (same-name
	// supersession is handled by the store's atomic overwrite).
	if r.persist != nil {
		for name := range cur.byName {
			if _, ok := next.byName[name]; !ok {
				_ = r.persist.Delete(name)
			}
		}
	}
	return nil
}

// LoadDir is SetDir followed by Reload — the one-call boot path.
func (r *Registry) LoadDir(dir string) error {
	r.SetDir(dir)
	return r.Reload()
}

// loadDir parses every *.sdl file in dir. The schema's served name is
// the file's base name without the extension (stable across renames
// inside the file), and must be unique case-sensitively.
func loadDir(dir string) (map[string]*schema.Schema, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	out := make(map[string]*schema.Schema)
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".sdl") {
			continue
		}
		name := strings.TrimSuffix(ent.Name(), ".sdl")
		if name == "" {
			return nil, fmt.Errorf("registry: %s: empty schema name", ent.Name())
		}
		path := filepath.Join(dir, ent.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		s, err := sdl.Parse(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("registry: %s: %w", path, err)
		}
		out[name] = s
	}
	return out, nil
}

func sortedNames(m map[string]*Snapshot) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
