package server

// Admission control for the search endpoints. Cheap read-only
// endpoints (/healthz, /metrics, ...) are never gated — an overloaded
// process must stay observable — but the search endpoints and session
// keystrokes run Algorithm 2, whose worst case is exponential in the
// schema, so the number running at once is bounded by a semaphore with
// a bounded wait queue. Requests beyond the queue are shed immediately
// with 429 + Retry-After: under overload a fast "come back later" beats
// a slow success, and the retrying client re-enters the queue with
// backoff instead of piling onto a dying process.

import (
	"context"
	"errors"
)

// acquire's two failures: a full wait queue (HTTP 429) and a context
// that ended while it waited in the queue (HTTP 503).
var (
	errShed       = errors.New("server overloaded: admission queue full")
	errQueueEnded = errors.New("request ended while waiting for an admission slot")
)

// gate is a concurrency-limiting semaphore with a bounded wait queue.
type gate struct {
	slots chan struct{} // buffered semaphore: len == searches in flight
	queue chan struct{} // buffered: len == requests waiting for a slot
}

func newGate(width, queueLen int) *gate {
	return &gate{
		slots: make(chan struct{}, width),
		queue: make(chan struct{}, queueLen),
	}
}

// acquire tries to take a slot, waiting in the bounded queue when the
// gate is saturated. On a nil error the caller must call release
// exactly once.
func (g *gate) acquire(ctx context.Context) error {
	// Fast path: a free slot, no queue.
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	// Saturated: enter the bounded wait queue or shed.
	select {
	case g.queue <- struct{}{}:
	default:
		return errShed
	}
	defer func() { <-g.queue }()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return errQueueEnded
	}
}

// release returns a slot taken by acquire.
func (g *gate) release() { <-g.slots }

// inFlight reports the number of held slots.
func (g *gate) inFlight() int { return len(g.slots) }

// queued reports the number of waiters.
func (g *gate) queued() int { return len(g.queue) }

// admit is the server's one admission call — the HTTP search endpoints
// reach it through beginSearch, session keystrokes through
// session.Config.Admit — and keeps the inflight gauge and the sheds.
// A context that ends in the queue is the caller's to count: for a
// request it is a timeout, for a keystroke a newer one superseding it.
// On success the caller must call release once.
func (sv *Server) admit(ctx context.Context) (release func(), err error) {
	if err := sv.gate.acquire(ctx); err != nil {
		if errors.Is(err, errShed) {
			sv.met.sheds.Inc()
		}
		return nil, err
	}
	sv.met.inflight.Inc()
	return func() {
		sv.met.inflight.Dec()
		sv.gate.release()
	}, nil
}
