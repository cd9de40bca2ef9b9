package registry

import (
	"sync/atomic"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/schema"
)

// Snapshot is one immutable generation of one named schema: the schema
// graph, the long-lived Completer searching it (compiled transition
// indexes and pooled engines are scoped to the snapshot), and the
// optional object store. A request that acquired a snapshot sees that
// exact schema state for its whole lifetime, reloads notwithstanding.
//
// Lifecycle: a snapshot is born holding one reference owned by the
// registry table. Acquire adds references; Release drops them. When
// the table stops carrying the snapshot (a reload superseded it) the
// registry drops its reference too, and whoever performs the final
// Release retires the snapshot: its closure index returns its budget
// bytes and the registry's live count drops.
type Snapshot struct {
	name  string
	gen   uint64
	s     *schema.Schema
	cmp   *core.Completer
	store *objstore.Store
	reg   *Registry

	// cl is the snapshot's closure handle — building, ready, or
	// disabled. Set before the snapshot is published; EnableClosure may
	// replace a disabled handle on a live snapshot, hence the pointer.
	cl atomic.Pointer[closure.Handle]

	refs atomic.Int64
	done atomic.Bool
}

// Name returns the registry name the snapshot is served under (the SDL
// file's base name, not the schema directive inside it).
func (sn *Snapshot) Name() string { return sn.name }

// Generation returns the snapshot's registry-wide generation number.
// Cache shards and singleflight keys must incorporate it: two
// snapshots of the same name from different loads never share state.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Schema returns the schema graph.
func (sn *Snapshot) Schema() *schema.Schema { return sn.s }

// Completer returns the snapshot's long-lived search engine. It is
// safe for concurrent use and keeps its base transition table and
// engine pool for the snapshot's whole lifetime — the warm,
// allocation-free hot path of the serving layer.
func (sn *Snapshot) Completer() *core.Completer { return sn.cmp }

// Store returns the snapshot's object store, or nil.
func (sn *Snapshot) Store() *objstore.Store { return sn.store }

// Closure returns the snapshot's closure handle (never nil). While
// the handle is not ready, queries fall back to the search kernel.
func (sn *Snapshot) Closure() *closure.Handle {
	if h := sn.cl.Load(); h != nil {
		return h
	}
	return closure.Disabled("closure disabled")
}

// ClosureStatus returns the observable state of the snapshot's
// closure build: ready, building, or disabled (with a reason).
func (sn *Snapshot) ClosureStatus() closure.Status { return sn.Closure().Status() }

// Refs returns the current reference count (the registry's own
// reference included while the snapshot is current). Test hook.
func (sn *Snapshot) Refs() int64 { return sn.refs.Load() }

// tryAcquire increments the refcount unless it already drained. The
// CAS loop is what makes the lock-free table read safe: a reader that
// lost the race against the final Release must not resurrect the
// snapshot, it must retry on a fresh table.
func (sn *Snapshot) tryAcquire() bool {
	for {
		n := sn.refs.Load()
		if n <= 0 {
			return false
		}
		if sn.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference. Exactly one caller observes the drop to
// zero and retires the snapshot: its closure index returns its budget
// bytes, the registry live count falls, and the retirement observer
// (if any) fires. The Completer needs no release: it holds only its
// base transition table and engine pool, which the garbage collector
// frees with the snapshot. Releasing more times than acquired is a
// bug; it panics rather than corrupting the protocol silently.
func (sn *Snapshot) Release() {
	n := sn.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("registry: Snapshot.Release without matching Acquire")
	}
	if !sn.done.CompareAndSwap(false, true) {
		return
	}
	// Budget hygiene: a drained snapshot's index must return its bytes
	// even on lifecycles that never pass through swap (idempotent —
	// superseded snapshots were already cancelled there).
	if h := sn.cl.Load(); h != nil {
		h.Cancel()
	}
	sn.reg.live.Add(-1)
	if fn := sn.reg.onRetire.Load(); fn != nil {
		(*fn)(sn)
	}
}
