package server

// Closure serving: the server consults the snapshot's materialized
// all-pairs index before the search kernel for the dominant query
// shape — a single-gap expression `root ~ anchor` at the server's
// default E, untraced and unbudgeted. Everything else (multi-gap,
// per-request E, trace, per-request timeout) falls through to the
// ordinary pipeline by design: the index only materializes the shape
// the paper identifies as the interactive hot path, and a budgeted
// request explicitly asked for a bounded fresh search.
//
// A closure answer is bit-for-bit the Result the kernel would have
// produced (internal/closure builds every cell through the serving
// dispatch), so hitting the index changes latency, never answers.

import (
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/registry"
)

// Engine values reported in response meta: which subsystem produced
// the answer.
const (
	engineSearch  = "search"
	engineClosure = "closure"
)

// EnableClosure switches on background all-pairs warming for every
// snapshot the registry serves, bounded by workers concurrent snapshot
// builds (each of which uses every P) and maxBytes resident index
// bytes (<= 0: unbounded). Build lifecycle events feed the server's
// metrics. Call once at boot, before serving traffic; returns the
// builder for introspection.
func (sv *Server) EnableClosure(workers int, maxBytes int64) *closure.Builder {
	b := closure.NewBuilder(workers, maxBytes, closureObserver{sv: sv})
	sv.reg.EnableClosure(b)
	return b
}

// closureObserver folds build lifecycle events into the metrics.
type closureObserver struct{ sv *Server }

func (o closureObserver) ClosureBuildStarted(string) {}

func (o closureObserver) ClosureBuildFinished(schema, outcome string, elapsed time.Duration, bytes int64) {
	m := o.sv.met
	m.closureBuilds.With(outcome).Inc()
	m.closureBuildSeconds.Observe(elapsed.Seconds())
	if b := o.sv.reg.ClosureBuilder(); b != nil {
		m.closureBytes.Set(b.Budget().Used())
	}
	// Background warm builds have no request context to thread a span
	// through; synthesize a single-span trace subject to the same
	// sampling and slow/error tail rules as a live request.
	errMsg := ""
	if outcome == "error" {
		errMsg = "closure build failed"
	}
	o.sv.traceP.RecordSynthetic("closure.build", time.Now().Add(-elapsed), elapsed,
		map[string]any{obs.AttrSchema: schema, "outcome": outcome, "bytes": bytes}, errMsg)
}

// closureEligible reports whether the request may be answered from
// the closure at all: default E, no trace, no per-request budget.
// (The expression shape is checked by closureLookup.)
func (sv *Server) closureEligible(req CompleteRequest, opts core.Options) bool {
	return !req.Trace && req.TimeoutMs == 0 && opts.E == sv.opts.E
}

// closureLookup answers a single-gap expression from the snapshot's
// materialized index. ok is false when the expression is not
// single-gap, the index is not ready, or the cell is absent (unknown
// or primitive root — the fall-through search produces the canonical
// error); eligible reports whether the expression shape qualified,
// so the caller can distinguish a miss from a fallback.
func (sv *Server) closureLookup(sn *registry.Snapshot, e pathexpr.Expr) (res *core.Result, ok, eligible bool) {
	// An annotated gap (regex constraint) or a pushed-down predicate
	// changes the answer set: the index only materializes the
	// unconstrained cells, so those queries must fall through to the
	// kernel.
	if len(e.Steps) != 1 || !e.Steps[0].Gap ||
		e.Steps[0].Constraint != "" || e.Steps[0].Pred != "" {
		return nil, false, false
	}
	ix := sn.Closure().Index()
	if ix == nil {
		return nil, false, true
	}
	root, found := sn.Schema().ClassByName(e.Root)
	if !found {
		return nil, false, true
	}
	res, hit := ix.Lookup(root.ID, e.Steps[0].Name)
	return res, hit, true
}
