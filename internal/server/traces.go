package server

// The /v1 trace introspection surface: the retained-trace buffer
// (GET /v1/traces, GET /v1/traces/{id}) and the slow-query log
// (GET /v1/queries/slow). Both serve wait-free snapshots of the span
// pipeline's rings — reading them never contends with request
// recording.

import (
	"net/http"
	"strconv"
	"time"

	"pathcomplete/internal/obs"
)

// TracesResponse is the data payload of GET /v1/traces.
type TracesResponse struct {
	// Traces lists the retained traces, newest first.
	Traces []*obs.TraceData `json:"traces"`
	// Stats is the pipeline's accounting (started/ended roots, which
	// retention rule kept how many, buffer configuration effects).
	Stats obs.TraceStats `json:"stats"`
}

// SlowQueriesResponse is the data payload of GET /v1/queries/slow.
type SlowQueriesResponse struct {
	// ThresholdMs is the configured slow threshold; 0 means the slow
	// log is disabled.
	ThresholdMs float64 `json:"thresholdMs"`
	// Queries lists the slow queries, newest first.
	Queries []*obs.SlowQuery `json:"queries"`
}

// handleTraces serves GET /v1/traces: the retained traces, newest
// first, optionally bounded by ?limit=N.
func (sv *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	ts := sv.traceP.Traces()
	if ts == nil {
		ts = []*obs.TraceData{}
	}
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			sv.jsonError(w, r, http.StatusBadRequest, CodeBadRequest, "limit must be a non-negative integer")
			return
		}
		if n < len(ts) {
			ts = ts[:n]
		}
	}
	sv.respond(w, r, http.StatusOK, TracesResponse{Traces: ts, Stats: sv.traceP.Stats()}, nil)
}

// handleTraceByID serves GET /v1/traces/{id}: one retained trace as a
// span tree (the root span first, children carrying parentId links).
func (sv *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td := sv.traceP.Trace(id)
	if td == nil {
		sv.jsonError(w, r, http.StatusNotFound, CodeNotFound,
			"no retained trace with id "+id+" (evicted, or never sampled/retained)")
		return
	}
	sv.respond(w, r, http.StatusOK, td, nil)
}

// handleSlowQueries serves GET /v1/queries/slow: the slow-query ring,
// newest first.
func (sv *Server) handleSlowQueries(w http.ResponseWriter, r *http.Request) {
	qs := sv.traceP.SlowQueries()
	if qs == nil {
		qs = []*obs.SlowQuery{}
	}
	out := SlowQueriesResponse{
		ThresholdMs: float64(sv.traceP.Config().SlowThreshold) / float64(time.Millisecond),
		Queries:     qs,
	}
	sv.respond(w, r, http.StatusOK, out, nil)
}
