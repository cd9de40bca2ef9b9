package core

// This file is the search-tracing pillar of the observability layer:
// an optional Tracer receives structured events from every decision
// point of Algorithm 2 — node entry, each prune (and each caution-set
// rescue), each complete path offered to update(), and each
// preemption — so a single query can be replayed step by step. The
// events are exactly the quantities Stats aggregates (Figure 7 of the
// paper), but ordered: where Stats says *how many* children best[u]
// pruned, a trace says *which* children, at which labels, under which
// best sets.
//
// Tracing is off by default (Options.Tracer == nil) and the engine
// guards every hook behind a nil check, so the untraced hot path pays
// only an untaken branch per event site (see BenchmarkTracerOverhead).

import (
	"fmt"

	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// PruneKind identifies which test of Algorithm 2 cut (or rescued) a
// child in a Tracer.OnPrune event.
type PruneKind int

const (
	// PruneCycle: the child class is already on the current path
	// (line 8, acyclicity).
	PruneCycle PruneKind = iota
	// PruneBestT: the child's label fell outside AGG*(best[T] ∪ {l})
	// (line 9, the bound against realized complete labels).
	PruneBestT
	// PruneBestU: the child's label fell outside the per-node best set
	// (lines 10–11) and no caution set rescued it.
	PruneBestU
	// CautionSave: the child failed the best[u] test but was explored
	// anyway because of a caution-set intersection (Section 4.1). Not
	// a prune — the event records the near miss.
	CautionSave
	// PruneConstraint: the edge would kill the gap's constraint
	// automaton, or end the gap with its automaton in a non-accepting
	// state — the fragment it spells cannot match the ~(RE)~ pattern.
	PruneConstraint
)

// String returns the stable event-kind name used in JSON traces.
func (k PruneKind) String() string {
	switch k {
	case PruneCycle:
		return "prune_cycle"
	case PruneBestT:
		return "prune_bestT"
	case PruneBestU:
		return "prune_bestU"
	case CautionSave:
		return "caution_save"
	case PruneConstraint:
		return "prune_constraint"
	default:
		return fmt.Sprintf("prune_kind(%d)", int(k))
	}
}

// Tracer receives structured events from one search. A Tracer is
// consulted only when non-nil, from the goroutine running the search;
// implementations need not be safe for concurrent use, but a Tracer
// must not be shared between concurrently running searches. Set one
// per query via Options.Tracer.
type Tracer interface {
	// OnEnter fires once per traverse call (the paper's per-query cost
	// unit): the search is at class v, about to satisfy pattern
	// segment seg, at the given path depth, with path label l.
	OnEnter(v schema.ClassID, seg, depth int, l label.Label)
	// OnPrune fires when a child edge is cut — or, for CautionSave,
	// nearly cut. rel is the edge, toSeg the segment it would advance
	// to, and l the label the path would have after taking it (for
	// PruneCycle, the label before taking it, since the edge is
	// rejected before composition).
	OnPrune(kind PruneKind, rel schema.Rel, toSeg int, l label.Label)
	// OnOffer fires when a complete consistent path is handed to
	// update(); accepted reports whether it joined the candidate set
	// (false: dominated by best[T], a duplicate edge sequence, or cut
	// by MaxPaths).
	OnOffer(rels []schema.RelID, l label.Label, accepted bool)
	// OnPreempt fires during result assembly when the Inheritance
	// Semantics Criterion (Section 4.3) removes dropped because by
	// shadows it.
	OnPreempt(dropped, by *pathexpr.Resolved)
}

// TraceEvent is one step of a recorded traversal, shaped for JSON
// transport (the /complete {"trace":true} response and pathc -trace).
type TraceEvent struct {
	// Step numbers events from 0 in emission order.
	Step int `json:"step"`
	// Kind is one of enter, prune_cycle, prune_bestT, prune_bestU,
	// caution_save, offer, offer_rejected, preempt.
	Kind string `json:"kind"`
	// Class is the class entered (enter) or the child class the event
	// concerns (prunes and caution saves).
	Class string `json:"class,omitempty"`
	// Seg is the pattern segment index the event occurred at.
	Seg int `json:"seg"`
	// Depth is the current path length in edges (enter only).
	Depth int `json:"depth,omitempty"`
	// Rel renders the edge the event concerns, connector first, e.g.
	// "@>grad" (prunes, caution saves).
	Rel string `json:"rel,omitempty"`
	// Path renders the complete path expression (offers, preempts) —
	// for preempt, the dropped path.
	Path string `json:"path,omitempty"`
	// By renders the preempting path (preempt only).
	By string `json:"by,omitempty"`
	// Label renders the path label "[conn, semlen]" where known.
	Label string `json:"label,omitempty"`
}

// DefaultTraceLimit bounds a TraceRecorder that was given no explicit
// limit. Adversarial searches visit millions of states; a trace that
// size helps nobody and would balloon the HTTP response.
const DefaultTraceLimit = 10000

// TraceRecorder is the standard Tracer: it renders events against a
// schema and collects up to Limit of them, counting the overflow.
type TraceRecorder struct {
	// Events holds the recorded events in emission order.
	Events []TraceEvent
	// Dropped counts events discarded after Limit was reached.
	Dropped int
	// Limit caps len(Events); 0 means DefaultTraceLimit. Set a
	// negative Limit for an unbounded recording.
	Limit int

	s    *schema.Schema
	step int
}

// NewTraceRecorder returns a recorder rendering names against s,
// keeping at most limit events (0: DefaultTraceLimit; negative:
// unlimited).
func NewTraceRecorder(s *schema.Schema, limit int) *TraceRecorder {
	return &TraceRecorder{s: s, Limit: limit}
}

func (t *TraceRecorder) add(ev TraceEvent) {
	limit := t.Limit
	if limit == 0 {
		limit = DefaultTraceLimit
	}
	if limit > 0 && len(t.Events) >= limit {
		t.Dropped++
		t.step++
		return
	}
	ev.Step = t.step
	t.step++
	t.Events = append(t.Events, ev)
}

func (t *TraceRecorder) className(id schema.ClassID) string { return t.s.Class(id).Name }

// OnEnter implements Tracer.
func (t *TraceRecorder) OnEnter(v schema.ClassID, seg, depth int, l label.Label) {
	t.add(TraceEvent{
		Kind:  "enter",
		Class: t.className(v),
		Seg:   seg,
		Depth: depth,
		Label: l.String(),
	})
}

// OnPrune implements Tracer.
func (t *TraceRecorder) OnPrune(kind PruneKind, rel schema.Rel, toSeg int, l label.Label) {
	t.add(TraceEvent{
		Kind:  kind.String(),
		Class: t.className(rel.To),
		Seg:   toSeg,
		Rel:   rel.Conn.String() + rel.Name,
		Label: l.String(),
	})
}

// OnOffer implements Tracer.
func (t *TraceRecorder) OnOffer(rels []schema.RelID, l label.Label, accepted bool) {
	kind := "offer"
	if !accepted {
		kind = "offer_rejected"
	}
	t.add(TraceEvent{
		Kind:  kind,
		Seg:   -1,
		Path:  t.renderRels(rels),
		Label: l.String(),
	})
}

// OnPreempt implements Tracer.
func (t *TraceRecorder) OnPreempt(dropped, by *pathexpr.Resolved) {
	t.add(TraceEvent{
		Kind: "preempt",
		Seg:  -1,
		Path: dropped.String(),
		By:   by.String(),
	})
}

// renderRels renders an edge sequence as a path expression string
// without resolving it (the sequence may be rejected and never become
// a Resolved).
func (t *TraceRecorder) renderRels(rels []schema.RelID) string {
	if len(rels) == 0 {
		return ""
	}
	var sb []byte
	sb = append(sb, t.className(t.s.Rel(rels[0]).From)...)
	for _, rid := range rels {
		rel := t.s.Rel(rid)
		sb = append(sb, rel.Conn.String()...)
		sb = append(sb, rel.Name...)
	}
	return string(sb)
}

var _ Tracer = (*TraceRecorder)(nil)
