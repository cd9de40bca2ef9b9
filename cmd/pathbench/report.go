package main

import (
	"encoding/json"
	"os"
)

// endToEnd sets the metrics a user of the server sees. Throughput is
// the operations sent in the window and completed (on sessions,
// answered keystrokes) per second from the window's start until the
// last of them finished; the latencies are their median and 99th
// percentile.
func (r *runner) endToEnd(logs []*opLog, rl *reloadLog) {
	var lat []float64
	last := r.win.start
	for _, l := range logs {
		lat = append(append(lat, l.lat...), l.tracedLat...)
		if l.lastEnd.After(last) {
			last = l.lastEnd
		}
	}
	p99 := percentile(lat, .99)
	r.res.set("throughput_qps", ratio(float64(len(lat)), last.Sub(r.win.start).Seconds()), "req/s")
	r.res.set("latency_p50_ms", percentile(lat, .5), "ms")
	r.res.set("latency_p99_ms", p99, "ms")
	r.res.set("latency_samples", float64(len(lat)), "count")
	r.res.set("latency_beyond_p99", float64(beyond(lat, p99)), "count")
	if r.w.reloads {
		r.res.set("reloads", float64(len(rl.reloadMs)), "count")
		r.res.set("registry.reload_ms_p50", percentile(rl.reloadMs, .5), "ms")
		r.res.set("reload.drop_ready_ms_p50", percentile(rl.readyMs[1], .5), "ms")
		r.res.set("reload.restore_ready_ms_p50", percentile(rl.readyMs[0], .5), "ms")
		r.res.set("closure.reuse_build_ms_p50", percentile(rl.rebuildMs[1], .5), "ms")
		r.res.set("closure.full_build_ms_p50", percentile(rl.rebuildMs[0], .5), "ms")
	}
}

// perLayer replays the traced sample, writes the span file, and sets
// the per-layer metrics.
func (r *runner) perLayer(logs []*opLog, sessions []*sessionLog, probes []tracedOp, rl *reloadLog, ed *edges) error {
	tr := &tracer{t0: r.win.start}
	var k kernelWork
	var ops []tracedOp
	for _, l := range logs {
		ops = append(ops, l.traced...)
	}
	if err := r.replayREST(tr, append(ops, probes...), &k); err != nil {
		return err
	}
	if err := r.replaySessions(tr, sessions, &k); err != nil {
		return err
	}
	if err := writeSpans(spanPath(r.cfg, r.w.name), tr.spans); err != nil {
		return err
	}
	self, unattributed := selfTimes(tr.spans)
	p50 := func(name string) float64 { return percentile(self[name], .5) }
	set := r.res.set

	set("server.unattributed_us_p50", percentile(unattributed, .5), "us")
	set("server.encode_us_p50", p50(spanEncode), "us")
	hits, misses := ed.delta("pathcomplete_cache_hits_total"), ed.delta("pathcomplete_cache_misses_total")
	set("server.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("server.singleflight_shared", ed.delta("pathcomplete_singleflight_shared_total"), "count")
	set("server.sheds", ed.delta("pathcomplete_admission_sheds_total"), "count")
	set("pathexpr.parse_us_p50", p50(spanParse), "us")
	set("gapre.compile_us_p50", p50(spanGapre), "us")
	set("core.new_us_p50", p50(spanNew), "us")
	set("core.complete_us_p50", p50(spanKernel), "us")
	set("core.complete_us_p99", percentile(self[spanKernel], .99), "us")
	set("core.calls_per_query", ratio(float64(k.calls), float64(k.searches)), "count")
	set("core.offers_per_query", ratio(float64(k.offers), float64(k.searches)), "count")
	set("core.pruned_ratio", ratio(float64(k.pruned), float64(k.pruned+k.calls)), "ratio")

	var traced, untraced, late []float64
	for _, l := range logs {
		traced = append(traced, l.tracedLat...)
		untraced = append(untraced, l.lat...)
		late = append(late, l.late...)
	}
	windowOps := float64(len(traced) + len(untraced))
	set("closure.hit_ratio", ratio(ed.delta("pathcomplete_closure_hits_total"), windowOps), "ratio")
	set("closure.reused_ratio", ratio(float64(rl.reused), float64(rl.cells)), "ratio")

	var finals, reused, anchors, calls, updates, skipped float64
	for _, sl := range sessions {
		updates += float64(sl.updates)
		skipped += float64(sl.skipped)
		for _, f := range sl.finals {
			if f.window && f.frame.Stats != nil {
				finals++
				reused += float64(f.frame.Stats.Reused)
				anchors += float64(f.frame.Stats.Anchors)
				calls += float64(f.frame.Stats.Calls)
			}
		}
	}
	set("session.reused_ratio", ratio(reused, anchors), "ratio")
	set("session.calls_per_update", ratio(calls, finals), "count")
	set("session.skipped_ratio", ratio(skipped, updates), "ratio")
	set("persist.saves", ed.delta("pathcomplete_persist_saves_total"), "count")
	set("runtime.mallocs_per_op", ratio(float64(ed.m1.Mallocs-ed.m0.Mallocs), windowOps), "count")
	set("runtime.gc_cycles", float64(ed.m1.NumGC-ed.m0.NumGC), "count")
	set("loadgen.late_p99_ms", percentile(late, .99), "ms")
	set("trace.overhead_ratio", ratio(percentile(traced, .5), percentile(untraced, .5)), "ratio")

	// Workload-specific layers, reported where the workload reaches them.
	if ns := self[spanLookup]; len(ns) > 0 {
		set("closure.lookup_ns_p50", percentile(ns, .5)*1e3, "ns")
	}
	if adv := self[spanAdvance]; len(adv) > 0 {
		set("session.advance_us_p50", percentile(adv, .5), "us")
	}
	set("trace.replayed", float64(len(self[spanRequest])), "count")
	set("trace.spans", float64(len(tr.spans)), "count")
	return nil
}

// writeResult writes a run's full result, the input of compare.
func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
