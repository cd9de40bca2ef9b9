package server

// Interactive keystroke sessions: GET /v1/sessions upgrades to a
// WebSocket and hands the connection to internal/session. The server
// layer contributes what a session cannot know on its own — the
// admission gate (each keystroke search takes a regular slot, so a
// thousand typists cannot starve the REST surface), the materialized
// closure index as a frontier cell source, the span pipeline, the
// session-count cap, and metric folding.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"pathcomplete/internal/core"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/session"
	"pathcomplete/internal/ws"
)

// handleSessions serves GET /v1/sessions. A non-upgrade request gets a
// JSON 400 describing the protocol; an upgrade beyond the session cap
// is refused with 429 before any handshake bytes are written.
func (sv *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if !ws.IsUpgradeRequest(r) {
		sv.jsonError(w, r, http.StatusBadRequest, CodeBadRequest,
			"/v1/sessions speaks WebSocket: reconnect with an upgrade handshake")
		return
	}
	// Resolve the schema name while a JSON error is still possible: an
	// unknown ?schema= must answer the same 404 unknown_schema envelope
	// as every other endpoint, not fail after the upgrade has consumed
	// the handshake.
	if probe, ok := sv.resolveSchema(w, r, r.URL.Query().Get("schema")); !ok {
		return
	} else {
		probe.Release()
	}
	// Reserve a session slot first (CAS loop: the cap must hold under a
	// connect stampede), so an over-limit client is refused with plain
	// HTTP while that is still possible.
	for {
		n := sv.sessions.Load()
		if n >= int64(sv.lim.MaxSessions) {
			sv.met.sessionsRejected.Inc()
			w.Header().Set("Retry-After", "1")
			sv.jsonError(w, r, http.StatusTooManyRequests, CodeOverloaded, fmt.Sprintf(
				"session limit reached: %d sessions open", n))
			return
		}
		if sv.sessions.CompareAndSwap(n, n+1) {
			break
		}
	}
	sv.met.sessionsOpen.Set(sv.sessions.Load())
	defer func() { sv.met.sessionsOpen.Set(sv.sessions.Add(-1)) }()

	// Capture everything the response writer carries before Upgrade
	// hijacks it.
	id := w.Header().Get(obs.RequestIDHeader)
	schemaName := r.URL.Query().Get("schema")
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		sv.jsonError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	sv.met.sessionsTotal.Inc()
	label := schemaName
	if label == "" {
		label = sv.reg.DefaultName()
	}
	sv.met.schemaSessions.With(sv.met.schemaLabel(label)).Inc()

	session.Run(r.Context(), conn, session.Config{
		ID:         id,
		Registry:   sv.reg,
		Schema:     schemaName,
		Debounce:   sv.lim.SessionDebounce,
		MaxExprLen: sv.lim.MaxExprLen,
		Admit:      sv.sessionAdmit,
		CellSource: sv.sessionCellSource,
		Trace:      sv.traceP,
		OnEvent:    sv.sessionEvent,
		Logger:     sv.logger,
	})
}

// sessionAdmit gates one keystroke search through the same semaphore
// as the REST search endpoints, with the same metric accounting.
func (sv *Server) sessionAdmit(ctx context.Context) (func(), error) {
	switch sv.gate.acquire(ctx) {
	case admitOK:
		sv.met.inflight.Inc()
		return func() {
			sv.met.inflight.Dec()
			sv.gate.release()
		}, nil
	case admitShed:
		sv.met.sheds.Inc()
		return nil, errors.New("server overloaded: admission queue full")
	default: // admitCanceled
		sv.met.timeouts.Inc()
		return nil, errors.New("search ended while waiting for an admission slot")
	}
}

// sessionCellSource serves frontier cells from the snapshot's
// materialized all-pairs closure: the same immutable index the REST
// hot path probes, so a session's cold anchors cost one map lookup
// when the index is ready.
func (sv *Server) sessionCellSource(sn *registry.Snapshot, root, anchor string) (*core.Result, bool) {
	ix := sn.Closure().Index()
	if ix == nil {
		return nil, false
	}
	rc, ok := sn.Schema().ClassByName(root)
	if !ok {
		return nil, false
	}
	res, hit := ix.Lookup(rc.ID, anchor)
	if hit {
		sv.met.closureHits.Inc()
	}
	return res, hit
}

// sessionEvent folds session happenings into the metrics.
func (sv *Server) sessionEvent(ev session.Event) {
	switch ev.Kind {
	case "update":
		sv.met.sessionUpdates.Inc()
	case "batch":
		sv.met.sessionBatches.Inc()
	case "final":
		sv.met.sessionFinals.Inc()
	case "skipped":
		sv.met.sessionSkipped.Inc()
	case "rebind":
		sv.met.sessionRebinds.Inc()
	case "error":
		// Codes are a small fixed set (see session's Code* constants),
		// so the label cardinality is bounded by construction.
		sv.met.sessionErrors.With(ev.Code).Inc()
	}
}
