package server

// The versioned /v1 surface. Every v1 response — success or failure —
// is one uniform envelope:
//
//	{"data": ..., "error": null, "meta": {"schema": ..., "generation": ...,
//	 "engine": "closure|search", "cacheHit": ..., "durationMs": ...}}
//
// with error responses carrying data: null and a machine-readable
// error object {"code", "message"} whose code is one of bad_request,
// unknown_schema, not_found, deadline, overloaded, internal. respond
// and jsonError are its only writers, and every error the server
// answers — 429 sheds and recovered panics included, on any route —
// goes through jsonError, as do a wrong method or an unknown path
// under /v1 (v1Unrouted).

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/sdl"
)

// V1Paths lists every /v1 route pattern the server mounts, exactly as
// it appears in docs/openapi.yaml. The openapi golden test asserts
// the spec's path list and the mounted mux agree with this list, so a
// new /v1 route cannot ship undocumented (or documented but
// unmounted).
var V1Paths = []string{
	"/v1/complete",
	"/v1/completeBatch",
	"/v1/evaluate",
	"/v1/explain",
	"/v1/queries/slow",
	"/v1/schemas",
	"/v1/schemas/{name}",
	"/v1/schemas/reload",
	"/v1/sessions",
	"/v1/traces",
	"/v1/traces/{id}",
}

// APIError is the machine-readable error object of a v1 envelope.
type APIError struct {
	// Code is one of "bad_request", "unknown_schema", "not_found",
	// "deadline", "overloaded", "internal".
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes of the v1 surface.
const (
	CodeBadRequest    = "bad_request"
	CodeUnknownSchema = "unknown_schema"
	CodeNotFound      = "not_found"
	CodeDeadline      = "deadline"
	CodeOverloaded    = "overloaded"
	CodeInternal      = "internal"
)

// Meta is the response metadata of a v1 envelope.
type Meta struct {
	// ApiVersion is the major version of the response contract, "1" on
	// every v1 envelope — success and error alike — so a client can
	// verify which surface answered without inspecting the request URL.
	ApiVersion string `json:"apiVersion,omitempty"`
	// Schema and Generation identify the pinned snapshot, when the
	// endpoint is snapshot-scoped.
	Schema     string `json:"schema,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// Engine identifies the answering subsystem for completion
	// endpoints: "closure" or "search".
	Engine string `json:"engine,omitempty"`
	// CacheHit reports a memo-cache hit.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Constrained reports that the query's expression carried a gap
	// regex constraint or a pushed-down predicate — the annotated query
	// shapes that bypass the closure index and memoize under their own
	// cache keys.
	Constrained bool `json:"constrained,omitempty"`
	// TraceID is the hex trace ID of this request when it is being
	// recorded by the span pipeline — the key for /v1/traces/{id} and
	// the /metrics exemplars. Absent when the request was not selected.
	TraceID string `json:"traceId,omitempty"`
	// DurationMs is the server-side wall clock of the request.
	DurationMs float64 `json:"durationMs"`
}

// Envelope is the uniform body of every v1 response.
type Envelope struct {
	Data  any       `json:"data"`
	Error *APIError `json:"error"`
	Meta  *Meta     `json:"meta"`
}

// noV1Route begins the message of v1Unrouted's 404, which tells an
// unmounted /v1 path from a handler's own not_found.
const noV1Route = "no /v1 route at "

// v1Unrouted answers, in the envelope, each /v1 request no route of mux
// takes (the mux alone answers text/plain): 405 with the Allow header
// when other methods are mounted at the path, 404 otherwise.
func (sv *Server) v1Unrouted(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var allow []string
		for _, m := range []string{"DELETE", "GET", "HEAD", "OPTIONS", "PATCH", "POST", "PUT"} {
			probe := *r
			probe.Method = m
			if _, pattern := mux.Handler(&probe); pattern != "" && pattern != "/v1/" {
				allow = append(allow, m)
			}
		}
		if allow == nil {
			sv.jsonError(w, r, http.StatusNotFound, CodeNotFound, noV1Route+r.URL.Path)
			return
		}
		w.Header().Set("Allow", strings.Join(allow, ", "))
		sv.jsonError(w, r, http.StatusMethodNotAllowed, CodeBadRequest, r.Method+" is not allowed on "+r.URL.Path)
	})
}

// errCode maps a failure status of Server.complete to its v1 error
// code.
func errCode(status int) string {
	switch {
	case status == http.StatusServiceUnavailable:
		return CodeDeadline
	case status >= 500:
		return CodeInternal
	default: // 400, 422
		return CodeBadRequest
	}
}

// startKey carries the request arrival time through the context, so
// the envelope's durationMs covers the whole handler chain.
type startKeyType struct{}

var startKey startKeyType

func withStart(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), startKey, time.Now())))
	})
}

// sinceStart returns the elapsed wall clock of the request.
func sinceStart(r *http.Request) time.Duration {
	if t, ok := r.Context().Value(startKey).(time.Time); ok {
		return time.Since(t)
	}
	return 0
}

// respond writes a success envelope around data. meta may be nil (an
// empty Meta with just apiVersion and durationMs is emitted).
func (sv *Server) respond(w http.ResponseWriter, r *http.Request, status int, data any, meta *Meta) {
	if meta == nil {
		meta = &Meta{}
	}
	sv.writeJSON(w, r, status, Envelope{Data: data, Meta: stampMeta(r, meta)})
}

// jsonError writes an error envelope: data null, error {code, msg}.
func (sv *Server) jsonError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	sv.writeJSON(w, r, status, Envelope{
		Error: &APIError{Code: code, Message: msg},
		Meta:  stampMeta(r, &Meta{}),
	})
}

// stampMeta fills the request-wide members of meta: the API version,
// the trace ID, and the wall clock since the request arrived.
func stampMeta(r *http.Request, meta *Meta) *Meta {
	meta.ApiVersion = APIVersion
	meta.TraceID = obs.SpanFromContext(r.Context()).TraceID()
	meta.DurationMs = float64(sinceStart(r)) / float64(time.Millisecond)
	return meta
}

// APIVersion is the major version every v1 envelope stamps in
// meta.apiVersion.
const APIVersion = "1"

// completeMeta builds the envelope metadata for one completed query.
func completeMeta(sn *registry.Snapshot, c completed) *Meta {
	return &Meta{
		Schema:      sn.Name(),
		Generation:  sn.Generation(),
		Engine:      c.engine,
		CacheHit:    c.cached,
		Constrained: c.expr.Constrained(),
	}
}

// SchemaDetailJSON is the data payload of GET /v1/schemas/{name}: the
// listing entry plus the closure status and the SDL text.
type SchemaDetailJSON struct {
	SchemaInfoJSON
	ClosureStatus closure.Status `json:"closureStatus"`
	// PersistStatus reports the schema's durable snapshot state
	// (enabled=false when the process runs without a persist store).
	PersistStatus *PersistStatusJSON `json:"persistStatus,omitempty"`
	SDL           string             `json:"sdl"`
}

// handleSchemaByName serves GET /v1/schemas/{name}.
func (sv *Server) handleSchemaByName(w http.ResponseWriter, r *http.Request) {
	sn, ok := sv.resolveSchema(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	defer sn.Release()
	var sb strings.Builder
	if err := sdl.Write(&sb, sn.Schema()); err != nil {
		sv.jsonError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	data := SchemaDetailJSON{
		SchemaInfoJSON: SchemaInfoJSON{
			Name:       sn.Name(),
			Generation: sn.Generation(),
			Classes:    sn.Schema().NumUserClasses(),
			Rels:       sn.Schema().NumRels(),
			Default:    sn.Name() == sv.reg.DefaultName(),
			Store:      sn.Store() != nil,
			Closure:    string(sn.ClosureStatus().State),
		},
		ClosureStatus: sn.ClosureStatus(),
		PersistStatus: sv.persistStatus(sn.Name(), sn.ClosureStatus().Restored),
		SDL:           sb.String(),
	}
	sv.respond(w, r, http.StatusOK, data, &Meta{Schema: sn.Name(), Generation: sn.Generation()})
}

// resolveSchema pins the named snapshot ("" means the registry
// default), answering the unknown-schema error itself. On success the
// caller must Release exactly once.
func (sv *Server) resolveSchema(w http.ResponseWriter, r *http.Request, name string) (*registry.Snapshot, bool) {
	sn, err := sv.reg.Acquire(name)
	if err != nil {
		if errors.Is(err, registry.ErrUnknownSchema) {
			sv.met.unknownSchema.Inc()
			sv.jsonError(w, r, http.StatusNotFound, CodeUnknownSchema, err.Error())
		} else {
			sv.jsonError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		}
		return nil, false
	}
	return sn, true
}
