package server

// Singleflight collapsing of concurrent identical /v1/complete requests.
// A cache stampede — N clients asking for the same cold (expression, E)
// at once — would otherwise run N identical searches and burn N
// admission slots on duplicate work. Instead the first request becomes
// the leader and runs the search; the rest wait on its outcome and
// share the single result (counted by pathcomplete_singleflight_shared).
// The implementation is a minimal stdlib-only analogue of
// golang.org/x/sync/singleflight, specialized to the completion key.
//
// The leader runs under its own request context, so its deadline
// governs the shared search; followers that time out or disconnect
// while waiting abandon the flight individually.

import (
	"context"
	"errors"
	"net/http"
	"sync"
)

// flightCall is one in-flight shared computation.
type flightCall struct {
	done   chan struct{} // closed when the leader finishes
	c      completed
	status int
	err    error
}

// flightGroup deduplicates concurrent calls per cacheKey.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[cacheKey]*flightCall)}
}

// do executes fn once per key among concurrent callers. The first
// caller (the leader) runs fn; concurrent callers with the same key
// wait for the leader and share its outcome, reporting shared=true.
// A waiting caller whose ctx ends first returns ctx.Err() with
// shared=true and a zero completed.
func (g *flightGroup) do(ctx context.Context, key cacheKey, fn func() (completed, int, error)) (c completed, status int, err error, shared bool) {
	g.mu.Lock()
	if call, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-call.done:
			return call.c, call.status, call.err, true
		case <-ctx.Done():
			return completed{}, 0, ctx.Err(), true
		}
	}
	call := &flightCall{done: make(chan struct{})}
	g.m[key] = call
	g.mu.Unlock()

	// The flight must settle even if fn panics (the panic-recovery
	// middleware will answer the leader's request; followers must not
	// be left waiting on a channel nobody will close).
	finished := false
	defer func() {
		if !finished {
			call.c, call.status, call.err = completed{}, http.StatusInternalServerError,
				errors.New("internal error: in-flight query failed")
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(call.done)
	}()
	call.c, call.status, call.err = fn()
	finished = true
	return call.c, call.status, call.err, false
}
