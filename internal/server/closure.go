package server

// Closure serving: resolve consults the snapshot's materialized
// all-pairs index before the memo and the search kernel for the
// dominant query shape — a single unannotated gap `root ~ anchor` at
// the server's default E, untraced and unbudgeted. Everything else
// (multi-gap, annotated gaps, per-request E, trace, per-request
// timeout) falls through by design: the index only materializes the
// shape the paper identifies as the interactive hot path, and a
// budgeted request explicitly asked for a bounded fresh search.
//
// A closure answer is bit-for-bit the Result the kernel would have
// produced (internal/closure builds every cell through the serving
// dispatch), so hitting the index changes latency, never answers.

import (
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/obs"
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

// closureCell is the server's one closure lookup (resolve's, and every
// session frontier's cell source): the cell root ~ anchor of the
// snapshot's index, counted as a hit. ok is false when the index is not
// ready or the cell is absent (an unknown or primitive root: the
// fall-through search produces the canonical error).
func (sv *Server) closureCell(sn *registry.Snapshot, root, anchor string) (res *core.Result, ok bool) {
	ix := sn.Closure().Index()
	if ix == nil {
		return nil, false
	}
	rc, found := sn.Schema().ClassByName(root)
	if !found {
		return nil, false
	}
	res, ok = ix.Lookup(rc.ID, anchor)
	if ok {
		sv.met.closureHits.Inc()
	}
	return res, ok
}
