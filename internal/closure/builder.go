package closure

// Builder is the background-warming side of the closure subsystem: a
// bounded pool of snapshot builds that materializes one Index per live
// schema snapshot without ever blocking the serving path. The bound
// counts whole snapshot builds; each build spreads its own cells over
// every P (BuildReusing). The registry hands every freshly installed
// snapshot to Warm and cancels the returned Handle when the snapshot
// is superseded; queries consult the Handle and fall through to the
// search kernel until (unless) the index is ready.
//
// The Handle is a tiny three-state machine — building → ready, or
// building/ready → disabled — with the transitions guarded by one
// mutex so a Cancel racing the build's own publish can never leak a
// budget reservation: whichever side loses the race observes the
// other's state and releases (or declines to publish) accordingly.

import (
	"context"
	"sync"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/schema"
)

// State is the observable lifecycle phase of one snapshot's closure.
type State string

const (
	// StateBuilding: the all-pairs build is queued or running; queries
	// fall back to the search kernel.
	StateBuilding State = "building"
	// StateReady: the index is materialized; eligible queries are
	// served from it.
	StateReady State = "ready"
	// StateDisabled: no index and none coming — the build failed, ran
	// out of budget, was cancelled, or closure is switched off. Reason
	// says which.
	StateDisabled State = "disabled"
)

// Status is a point-in-time view of a Handle for /stats and /v1
// schema listings.
type Status struct {
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
	// Bytes and Cells are zero unless State == ready.
	Bytes int64 `json:"bytes,omitempty"`
	Cells int   `json:"cells,omitempty"`
	// BuildMs is the wall-clock build time once ready — restore time
	// when Restored is set.
	BuildMs int64 `json:"buildMs,omitempty"`
	// Restored reports that the ready index was deserialized from a
	// durable snapshot instead of being materialized by search.
	Restored bool `json:"restored,omitempty"`
	// ReusedCells reports how many cells were carried over from the
	// previous generation by edge-granular reuse (0 for full builds).
	ReusedCells int `json:"reusedCells,omitempty"`
}

// Observer receives build lifecycle events; the server wires it to
// its metric families. All methods may be called concurrently.
type Observer interface {
	// ClosureBuildStarted fires when a build leaves the queue and
	// begins materializing.
	ClosureBuildStarted(schema string)
	// ClosureBuildFinished fires exactly once per Warm call with
	// outcome "ready", "budget", "canceled", or "error".
	ClosureBuildFinished(schema string, outcome string, elapsed time.Duration, bytes int64)
}

// Builder owns the build slots and the byte budget shared by every
// build and every live index it produced.
type Builder struct {
	sem    chan struct{}
	budget *Budget
	obs    Observer
}

// NewBuilder returns a Builder running at most workers concurrent
// snapshot builds (minimum 1), each on every P, against a shared
// budget of maxBytes (<= 0: unbounded). obs may be nil.
func NewBuilder(workers int, maxBytes int64, obs Observer) *Builder {
	if workers < 1 {
		workers = 1
	}
	return &Builder{
		sem:    make(chan struct{}, workers),
		budget: NewBudget(maxBytes),
		obs:    obs,
	}
}

// Budget exposes the shared byte budget (for /stats).
func (b *Builder) Budget() *Budget { return b.budget }

// Disabled returns a Handle that is permanently disabled with the
// given reason — what a snapshot holds when closure is switched off.
func Disabled(reason string) *Handle {
	h := &Handle{done: make(chan struct{})}
	h.state = StateDisabled
	h.reason = reason
	close(h.done)
	return h
}

// Adopt wraps a restored index in an immediately-ready Handle,
// reserving its bytes against the shared budget — the fast half of
// the cold-start path, once the persistence layer has deserialized
// the index. It reports false (and returns no Handle) when the budget
// cannot fit the index; the caller falls back to Warm, which stops at
// the same bound and leaves the snapshot on the search kernel. An
// adopted Handle's Done channel is already closed (there is no build
// goroutine) and Cancel releases the reservation as usual.
func (b *Builder) Adopt(ix *Index) (*Handle, bool) {
	if !b.budget.Reserve(ix.Bytes()) {
		return nil, false
	}
	h := &Handle{b: b, state: StateReady, idx: ix, done: make(chan struct{})}
	close(h.done)
	return h, true
}

// Warm queues a background build of the all-pairs closure for the
// snapshot served as (name, gen) by cmp and returns its Handle
// immediately. The caller (the registry) must keep the snapshot
// acquired until the Handle is done or cancelled — the build runs
// cmp's kernel — and must Cancel the Handle when the snapshot is
// superseded or retired.
func (b *Builder) Warm(name string, gen uint64, cmp *core.Completer) *Handle {
	return b.WarmReusing(name, gen, cmp, nil, nil)
}

// WarmReusing is Warm with edge-granular reuse: cells of prev — the
// previous generation's ready index, built against prevSchema — whose
// supporting edges the schema diff did not touch are rehydrated
// instead of re-searched (see BuildReusing). Passing a nil prev or
// prevSchema degrades to a full build. The caller must capture prev
// and prevSchema BEFORE cancelling the previous snapshot's handle
// (Cancel drops the handle's index pointer); the index itself is
// immutable and safe to read after its budget reservation is
// released.
func (b *Builder) WarmReusing(name string, gen uint64, cmp *core.Completer, prev *Index, prevSchema *schema.Schema) *Handle {
	ctx, cancel := context.WithCancel(context.Background())
	h := &Handle{
		b:      b,
		state:  StateBuilding,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go b.build(ctx, h, name, gen, cmp, prev, prevSchema)
	return h
}

// build is the body of one snapshot build: acquire a pool slot, run
// BuildReusing, publish under the Handle's lock.
func (b *Builder) build(ctx context.Context, h *Handle, name string, gen uint64, cmp *core.Completer, prev *Index, prevSchema *schema.Schema) {
	defer close(h.done)
	// Wait for a build slot — cancellable, so a superseded snapshot
	// queued behind a long build never runs at all.
	select {
	case b.sem <- struct{}{}:
		defer func() { <-b.sem }()
	case <-ctx.Done():
		h.finish(nil, "canceled", b)
		return
	}
	if b.obs != nil {
		b.obs.ClosureBuildStarted(name)
	}
	start := time.Now()
	ix, _, err := BuildReusing(ctx, name, gen, cmp, b.budget, prev, prevSchema)
	outcome := "ready"
	switch {
	case err == nil:
	case ctx.Err() != nil:
		outcome = "canceled"
	case err == ErrBudget:
		outcome = "budget"
	default:
		outcome = "error: " + err.Error()
	}
	released := h.finish(ix, outcome, b)
	if b.obs != nil {
		short := outcome
		if err != nil && ctx.Err() == nil && err != ErrBudget {
			short = "error"
		}
		bytes := int64(0)
		if ix != nil && !released {
			bytes = ix.Bytes()
		}
		b.obs.ClosureBuildFinished(name, short, time.Since(start), bytes)
	}
}

// Handle tracks one snapshot's closure through its lifecycle. Safe
// for concurrent use.
type Handle struct {
	b      *Builder // nil for Disabled handles
	mu     sync.Mutex
	state  State
	reason string
	idx    *Index
	cancel context.CancelFunc
	done   chan struct{}
}

// finish publishes the build's outcome unless the Handle was already
// cancelled, in which case the index's reservation is released here
// (Cancel could not have released it — the index did not exist yet).
// Reports whether the index's bytes were released.
func (h *Handle) finish(ix *Index, outcome string, b *Builder) (released bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == StateDisabled {
		// Cancel won the race. A successful build's reservation must
		// not outlive the Handle.
		if ix != nil {
			b.budget.Release(ix.Bytes())
			released = true
		}
		return released
	}
	if ix != nil {
		h.idx = ix
		h.state = StateReady
		return false
	}
	h.state = StateDisabled
	h.reason = outcome
	return false
}

// Index returns the materialized index, or nil while building /
// after disable. The index is immutable and shared.
func (h *Handle) Index() *Index {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.idx
}

// Status returns the Handle's observable state.
func (h *Handle) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Status{State: h.state, Reason: h.reason}
	if h.idx != nil && h.state == StateReady {
		st.Bytes = h.idx.Bytes()
		st.Cells = h.idx.Cells()
		st.BuildMs = h.idx.BuildDuration().Milliseconds()
		st.Restored = h.idx.Restored()
		st.ReusedCells = h.idx.ReusedCells()
	}
	return st
}

// Cancel transitions the Handle to disabled, stops an in-flight
// build, and releases a ready index's budget reservation. Idempotent;
// called by the registry when the snapshot is superseded or retired.
func (h *Handle) Cancel() {
	h.mu.Lock()
	if h.state == StateDisabled {
		h.mu.Unlock()
		return
	}
	h.state = StateDisabled
	if h.reason == "" {
		h.reason = "canceled"
	}
	ix := h.idx
	h.idx = nil
	cancel := h.cancel
	h.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if ix != nil && h.b != nil {
		h.b.budget.Release(ix.Bytes())
	}
}

// Done is closed when the build goroutine has fully exited (including
// the cancel path). Test hook; the serving path never blocks on it.
func (h *Handle) Done() <-chan struct{} { return h.done }
