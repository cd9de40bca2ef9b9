package core

import (
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"

	"pathcomplete/internal/label"
)

// noopTracer measures the pure hook-dispatch cost: every event fires
// through the interface but does no work.
type noopTracer struct{}

func (noopTracer) OnEnter(schema.ClassID, int, int, label.Label)   {}
func (noopTracer) OnPrune(PruneKind, schema.Rel, int, label.Label) {}
func (noopTracer) OnOffer([]schema.RelID, label.Label, bool)       {}
func (noopTracer) OnPreempt(_, _ *pathexpr.Resolved)               {}

// BenchmarkTracerOverhead quantifies the cost of the tracing layer on
// the flagship ta~name completion (a series of `make bench`):
//
//	nil        the production hot path — Options.Tracer == nil, every
//	           hook site is one untaken branch. This must be
//	           indistinguishable (<2%) from the pre-tracing engine,
//	           which had no hook sites at all.
//	noop       interface dispatch per event, no event construction.
//	recording  full TraceRecorder event log (what {"trace":true} pays).
func BenchmarkTracerOverhead(b *testing.B) {
	s := uni.New()
	e := pathexpr.MustParse("ta~name")
	run := func(b *testing.B, opts Options) {
		b.Helper()
		b.ReportAllocs()
		c := New(s, opts)
		for i := 0; i < b.N; i++ {
			res, err := c.Complete(e)
			if err != nil || len(res.Completions) != 2 {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) {
		run(b, Paper())
	})
	b.Run("noop", func(b *testing.B) {
		opts := Paper()
		opts.Tracer = noopTracer{}
		run(b, opts)
	})
	b.Run("recording", func(b *testing.B) {
		opts := Paper()
		rec := NewTraceRecorder(s, -1)
		opts.Tracer = rec
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Events = rec.Events[:0]
			rec.Dropped = 0
			res, err := New(s, opts).Complete(e)
			if err != nil || len(res.Completions) != 2 {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	})
}
