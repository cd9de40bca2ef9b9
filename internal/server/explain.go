package server

// GET/POST /v1/explain: the provenance view of a completion query.
// The endpoint answers the two questions the Figure 1 loop leaves a
// user with — why did this completion rank where it did, and which
// schema edges does the answer stand on. It runs the exact /v1/complete
// pipeline (validation, snapshot pinning, admission, closure, cache,
// singleflight, search), so the derivations it explains are the
// derivations the completion endpoint served, then unfolds every
// completion into its CON-table rows (core.ExplainPath) and attaches
// the edge-ID bitmaps (core.EdgeSet) that the closure layer uses for
// edge-granular invalidation. Folding label.Con over the reported
// steps reproduces the ranked label — the replay contract locked by
// the core and server explain tests.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"pathcomplete/internal/core"
	"pathcomplete/internal/registry"
)

// ExplainEdgeJSON is one supporting schema edge: a row of the
// provenance record, identified by its dense RelID within the
// snapshot's generation.
type ExplainEdgeJSON struct {
	Rel  int    `json:"rel"`
	From string `json:"from"`
	Name string `json:"name"`
	To   string `json:"to"`
	Conn string `json:"conn"`
}

// ExplainStepJSON is one CON-table row of a completion's derivation:
// prevConn ∘ edgeConn → conn, with the running semantic length.
type ExplainStepJSON struct {
	Step     string `json:"step"`
	From     string `json:"from"`
	To       string `json:"to"`
	Rel      int    `json:"rel"`
	EdgeConn string `json:"edgeConn"`
	PrevConn string `json:"prevConn"`
	Conn     string `json:"conn"`
	SemLen   int    `json:"semlen"`
}

// ExplainCompletionJSON is one completion with its full derivation.
type ExplainCompletionJSON struct {
	// Rank is the completion's position in the served order (1-based):
	// sorted by label, then lexically.
	Rank   int    `json:"rank"`
	Path   string `json:"path"`
	Conn   string `json:"conn"`
	SemLen int    `json:"semlen"`
	// Steps derives the path edge by edge; the last row's conn/semlen
	// are the ranked label.
	Steps []ExplainStepJSON `json:"steps"`
	// Edges is the completion's own edge set as a hex bitmap
	// (least-significant word first) over the generation's RelIDs.
	Edges string `json:"edges"`
	// WhyRanked states the label-algebra reason for the rank.
	WhyRanked string `json:"whyRanked"`
}

// ExplainResponse is the data payload of a /v1/explain response.
type ExplainResponse struct {
	Expr       string `json:"expr"`
	Schema     string `json:"schema"`
	Generation uint64 `json:"generation"`
	// Engine names the subsystem that produced the explained answer —
	// explain shares /v1/complete's pipeline, closure index included.
	Engine string `json:"engine,omitempty"`
	// Constrained reports that the expression carried a gap regex or a
	// pushed-down predicate.
	Constrained bool `json:"constrained,omitempty"`
	// Support is the result-level invalidation footprint as a hex
	// bitmap: the union of the edges of every optimal-label witness the
	// search saw (a superset of the union of completion edge sets).
	// Absent when the result carries no support (frontier-merged or
	// truncated answers).
	Support string `json:"support,omitempty"`
	// SupportEdges lists the Support bitmap's edges in ID order.
	SupportEdges []ExplainEdgeJSON       `json:"supportEdges,omitempty"`
	Completions  []ExplainCompletionJSON `json:"completions"`
	Truncated    bool                    `json:"truncated,omitempty"`
	Aborted      bool                    `json:"aborted,omitempty"`
	StopReason   string                  `json:"stopReason,omitempty"`
}

// handleExplain serves GET and POST /v1/explain. POST takes the
// /v1/complete request body (trace is ignored: the derivation IS the
// trace); GET takes ?expr= and optional &e= for quick interactive use.
func (sv *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if r.Method == http.MethodGet {
		req.Expr = r.URL.Query().Get("expr")
		if raw := r.URL.Query().Get("e"); raw != "" {
			e, err := strconv.Atoi(raw)
			if err != nil {
				sv.jsonError(w, r, http.StatusBadRequest, CodeBadRequest, "bad request: e is not an integer: "+raw)
				return
			}
			req.E = e
		}
	} else {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			sv.jsonError(w, r, decodeStatus(err), CodeBadRequest, "bad request: "+err.Error())
			return
		}
	}
	// The derivation is the explanation; a kernel event log would only
	// force a cache-bypassing fresh search.
	req.Trace = false
	sv.serveComplete(w, r, req, func(sn *registry.Snapshot, c completed) any {
		return sv.explainResponse(sn, c)
	})
}

// explainResponse unfolds one completed query into its provenance
// view.
func (sv *Server) explainResponse(sn *registry.Snapshot, c completed) ExplainResponse {
	s := sn.Schema()
	res := c.res
	out := ExplainResponse{
		Expr:        c.expr.String(),
		Schema:      sn.Name(),
		Generation:  sn.Generation(),
		Engine:      c.engine,
		Constrained: exprConstrained(c.expr),
		Completions: make([]ExplainCompletionJSON, 0, len(res.Completions)),
		Truncated:   res.Truncated,
		Aborted:     res.Aborted,
		StopReason:  string(res.StopReason),
	}
	if res.Support != nil {
		out.Support = res.Support.Hex()
		ids := res.Support.IDs()
		out.SupportEdges = make([]ExplainEdgeJSON, len(ids))
		for i, id := range ids {
			rel := s.Rel(id)
			out.SupportEdges[i] = ExplainEdgeJSON{
				Rel:  int(rel.ID),
				From: s.Class(rel.From).Name,
				Name: rel.Name,
				To:   s.Class(rel.To).Name,
				Conn: rel.Conn.String(),
			}
		}
	}
	for i, cc := range res.Completions {
		steps := core.ExplainPath(cc.Path)
		jsteps := make([]ExplainStepJSON, len(steps))
		for j, st := range steps {
			jsteps[j] = ExplainStepJSON{
				Step:     st.Step,
				From:     st.From,
				To:       st.To,
				Rel:      int(st.Rel),
				EdgeConn: st.EdgeConn,
				PrevConn: st.PrevConn,
				Conn:     st.Conn,
				SemLen:   st.SemLen,
			}
		}
		out.Completions = append(out.Completions, ExplainCompletionJSON{
			Rank:   i + 1,
			Path:   cc.Path.String(),
			Conn:   cc.Label.Conn().String(),
			SemLen: cc.Label.SemLen(),
			Steps:  jsteps,
			Edges:  core.EdgesOf(s, cc.Path.Rels).Hex(),
			WhyRanked: fmt.Sprintf(
				"label %s is in the AGG* optimal set: composed connector %q (strength tier %d), semantic length %d; ranked %d of %d by label, then lexically",
				cc.Label, cc.Label.Conn(), cc.Label.Conn().Rank(), cc.Label.SemLen(), i+1, len(res.Completions)),
		})
	}
	return out
}
