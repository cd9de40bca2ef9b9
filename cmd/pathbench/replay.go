package main

// Per-layer attribution. While the window runs, the load goroutines
// record only a request span per traced operation and keep the
// response. Afterwards one goroutine replays a sample of them through
// the public call of every layer the response's meta says the server
// used, timing each call as a child span of a replay span whose parent
// is the request span. The server itself is not instrumented: every
// layer is measured from outside, around the same calls it makes.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/gapre"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/server"
)

// Span names: the layer and public call each one times.
const (
	spanRequest = "request" // the operation as the client saw it
	spanReplay  = "replay"  // one replayed operation; parent: its request
	spanParse   = "pathexpr.Parse"
	spanGapre   = "gapre.Compile+Determinize"
	spanLookup  = "closure.Index.Lookup"
	spanNew     = "core.New"
	spanKernel  = "core.Completer.CompleteContext"
	spanAdvance = "core.Frontier.Advance"
	spanEncode  = "server.encode"
)

// span is one timed interval; the spans of one operation share Trace.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer times nothing and records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	next  uint64
}

func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.next++
	return t.next
}

func (t *tracer) add(trace, id, parent uint64, name string, start, end time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{trace, id, parent, name, start.Sub(t.t0).Nanoseconds(), end.Sub(start).Nanoseconds()})
	}
}

// timed runs fn and records it as a child span of parent.
func (t *tracer) timed(trace, parent uint64, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(trace, t.id(), parent, name, start, time.Now())
}

// kernelWork sums the Figure 7 counters of replayed kernel searches.
type kernelWork struct {
	searches, calls, offers, pruned int
}

func (k *kernelWork) add(st core.Stats) {
	k.searches++
	k.calls += st.Calls
	k.offers += st.Offers
	k.pruned += st.PrunedBestT + st.PrunedBestU
}

// alphabet is the schema's edge vocabulary the way the kernel hands it
// to gapre.Determinize: a gap's first edge spells its name, every later
// edge its connector and name.
func alphabet(s *schema.Schema) (first, rest []string) {
	rels := s.Rels()
	first, rest = make([]string, len(rels)), make([]string, len(rels))
	for _, rel := range rels {
		first[rel.ID] = rel.Name
		rest[rel.ID] = rel.Conn.String() + rel.Name
	}
	return first, rest
}

// lookupReps repeats a closure lookup inside its span: one lookup takes
// tens of nanoseconds, about what reading the clock costs.
const lookupReps = 64

// replayREST replays logged /v1/complete operations against the served
// snapshot, following each response's meta: a closure answer replays
// the index lookup; a memo or singleflight answer replays nothing (both
// are internal to the server, so their cost stays unattributed); a
// kernel answer replays gap-regex compilation, the throwaway Completer
// of an e override, and the search, as server.search runs them.
func (r *runner) replayREST(tr *tracer, ops []tracedOp, k *kernelWork) error {
	sn, err := r.inst.reg.Acquire("")
	if err != nil {
		return err
	}
	defer sn.Release()
	s := sn.Schema()
	first, rest := alphabet(s)
	ix := sn.Closure().Index()
	ctx := context.Background()
	for _, op := range ops {
		var env envelope
		if err := json.Unmarshal(op.body, &env); err != nil {
			return err
		}
		trace, reqID, replayID := tr.id(), tr.id(), tr.id()
		tr.add(trace, reqID, 0, spanRequest, op.start, op.end)
		start := time.Now()
		var e pathexpr.Expr
		tr.timed(trace, replayID, spanParse, func() { e, err = pathexpr.Parse(op.q.expr) })
		if err != nil {
			return err
		}
		switch {
		case env.Meta.Engine == "closure":
			if ix == nil {
				break
			}
			t := time.Now()
			for i := 0; i < lookupReps; i++ {
				if root, ok := s.ClassByName(e.Root); ok {
					ix.Lookup(root.ID, e.Steps[0].Name)
				}
			}
			tr.add(trace, tr.id(), replayID, spanLookup, t, t.Add(time.Since(t)/lookupReps))
		case env.Meta.CacheHit || env.Data.Shared:
		default:
			for _, st := range e.Steps {
				if st.Constraint == "" {
					continue
				}
				tr.timed(trace, replayID, spanGapre, func() {
					if rx, err := gapre.Compile(st.Constraint); err == nil {
						_, _ = gapre.Determinize(rx, first, rest) // the kernel reports the error; only the time matters here
					}
				})
			}
			cmp := sn.Completer()
			if opts := cmp.Options(); op.q.e > 0 && op.q.e != opts.E {
				opts.E = op.q.e
				tr.timed(trace, replayID, spanNew, func() { cmp = core.New(s, opts) })
			}
			var res *core.Result
			tr.timed(trace, replayID, spanKernel, func() { res, err = cmp.CompleteContext(ctx, e) })
			if err == nil {
				k.add(res.Stats)
			}
		}
		tr.timed(trace, replayID, spanEncode, func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ") // as the server writes every body
			_ = enc.Encode(server.Envelope{Data: env.Data, Meta: &env.Meta})
		})
		tr.add(trace, replayID, reqID, spanReplay, start, time.Now())
	}
	return nil
}

// replaySessions replays every session's finals in order through one
// core.Frontier per typed base, as the server's session does, with a
// cell source that times each cold cell's kernel search. Every final
// advances the frontier, so its cell cache evolves as the server's
// did; only finals in traced slices record spans.
func (r *runner) replaySessions(tr *tracer, logs []*sessionLog, k *kernelWork) error {
	sn, err := r.inst.reg.Acquire("")
	if err != nil {
		return err
	}
	defer sn.Release()
	cmp := sn.Completer()
	ctx := context.Background()
	for _, l := range logs {
		var fr *core.Frontier
		var base string
		var cur *tracer // the tracer of the final being replayed, nil if untraced
		var trace, advanceID uint64
		var prior []pathexpr.Step
		var root string
		source := func(anchor string) (*core.Result, bool) {
			steps := append(append([]pathexpr.Step(nil), prior...), pathexpr.Step{Gap: true, Name: anchor})
			var res *core.Result
			var err error
			cur.timed(trace, advanceID, spanKernel, func() {
				res, err = cmp.CompleteContext(ctx, pathexpr.Expr{Root: root, Steps: steps})
			})
			if err != nil {
				return nil, false
			}
			if cur != nil {
				k.add(res.Stats)
			}
			return res, true
		}
		for _, f := range l.finals {
			cur = nil
			if f.traced {
				cur = tr
			}
			trace = cur.id()
			reqID, replayID := cur.id(), cur.id()
			cur.add(trace, reqID, 0, spanRequest, f.sent, f.end)
			start := time.Now()
			var e pathexpr.Expr
			cur.timed(trace, replayID, spanParse, func() { e, err = pathexpr.Parse(f.frame.Expr) })
			if err != nil {
				return err
			}
			n := len(e.Steps) - 1
			root, prior = e.Root, e.Steps[:n]
			advanceID = cur.id()
			t := time.Now()
			if b := (pathexpr.Expr{Root: root, Steps: prior}).String(); fr == nil || b != base {
				if fr, err = cmp.NewFrontier(e); err != nil {
					return err
				}
				fr.SetCellSource(source)
				base = b
			}
			if _, _, err := fr.Advance(ctx, e.Steps[n].Name, nil); err != nil {
				return err
			}
			cur.add(trace, advanceID, replayID, spanAdvance, t, time.Now())
			cur.timed(trace, replayID, spanEncode, func() { _, _ = json.Marshal(f.frame) })
			cur.add(trace, replayID, reqID, spanReplay, start, time.Now())
		}
	}
	return nil
}

// selfTimes returns, per span name, every span's self time in
// microseconds: its duration minus the part of its interval its
// children cover. It also returns, per operation, the request time no
// replayed layer accounts for: the request span minus the replayed
// layer calls (gapre is left out of that sum because the kernel call
// compiles the constraint again inside its own span).
func selfTimes(spans []span) (self map[string][]float64, unattributed []float64) {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string][]float64{}
	for _, s := range spans {
		covered := int64(0)
		for _, c := range children[s.ID] {
			lo, hi := max(s.Start, c.Start), min(s.Start+s.Dur, c.Start+c.Dur)
			if hi > lo {
				covered += hi - lo
			}
		}
		self[s.Name] = append(self[s.Name], float64(s.Dur-covered)/1e3)
		if s.Name != spanRequest {
			continue
		}
		for _, rp := range children[s.ID] {
			rest := s.Dur
			for _, c := range children[rp.ID] {
				if c.Name != spanGapre {
					rest -= c.Dur
				}
			}
			unattributed = append(unattributed, float64(rest)/1e3)
		}
	}
	return self, unattributed
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		Spans []span `json:"spans"`
	}{spans}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
