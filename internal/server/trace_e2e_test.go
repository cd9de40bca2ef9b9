package server

// End-to-end tracing acceptance: one query with sampling forced via a
// W3C traceparent is followable across every surface — the /v1
// envelope's meta.traceId, the span tree on /v1/traces/{id}, the
// slow-query log, and the histogram exemplar on /metrics — with
// durations that agree between the surfaces. Plus the trace-surface
// envelope/error shapes and a -race drill of concurrent queries,
// scrapes, and hot reloads that must leak no spans.

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/uni"
)

// forcedTraceparent is a fixed sampled client context: forcing the
// sampled flag guarantees retention, so the test can follow its own ID.
const (
	forcedTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	forcedTraceparent = "00-" + forcedTraceID + "-00f067aa0ba902b7-01"
)

// postTraced posts body with a sampled traceparent attached.
func postTraced(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, forcedTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp, readAll(t, resp)
}

// waitTrace fetches /v1/traces/{id} with a short retry: the root span
// finalizes after the response body is written, so the trace can lag
// the response by a scheduler beat.
func waitTrace(t *testing.T, base, id string) TraceDataJSON {
	t.Helper()
	for i := 0; i < 50; i++ {
		resp, err := http.Get(base + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode == http.StatusOK {
			var env testEnvelope
			if err := json.Unmarshal([]byte(body), &env); err != nil {
				t.Fatalf("decode envelope: %v\n%s", err, body)
			}
			var td TraceDataJSON
			if err := json.Unmarshal(env.Data, &td); err != nil {
				t.Fatalf("decode trace: %v\n%s", err, body)
			}
			return td
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("trace %s never appeared on /v1/traces/{id}", id)
	return TraceDataJSON{}
}

// TraceDataJSON mirrors obs.TraceData's wire shape for decoding.
type TraceDataJSON struct {
	TraceID    string  `json:"traceId"`
	Name       string  `json:"name"`
	DurationMs float64 `json:"durationMs"`
	Status     int     `json:"status"`
	Reason     string  `json:"reason"`
	Spans      []struct {
		SpanID     string         `json:"spanId"`
		ParentID   string         `json:"parentId"`
		Name       string         `json:"name"`
		OffsetMs   float64        `json:"offsetMs"`
		DurationMs float64        `json:"durationMs"`
		Attrs      map[string]any `json:"attrs"`
		Error      string         `json:"error"`
	} `json:"spans"`
}

// TestTraceEndToEnd is the acceptance walk: forced-sample query →
// meta.traceId → span tree → exemplar, all carrying the same ID.
func TestTraceEndToEnd(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	ts := newTS(t, sv)

	resp, body := postTraced(t, ts+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}

	// The response echoes the adopted trace ID on the wire and in meta.
	if tp := resp.Header.Get(obs.TraceparentHeader); !strings.Contains(tp, forcedTraceID) {
		t.Errorf("response traceparent = %q, want trace %s", tp, forcedTraceID)
	}
	env := decodeEnvelope(t, body)
	if env.Meta.TraceID != forcedTraceID {
		t.Fatalf("meta.traceId = %q, want %q", env.Meta.TraceID, forcedTraceID)
	}

	// The retained span tree covers the pipeline stages, parented under
	// the one root, with durations consistent with meta.durationMs.
	td := waitTrace(t, ts, forcedTraceID)
	if td.Reason != "sampled" || td.Status != http.StatusOK {
		t.Errorf("trace reason/status = %q/%d", td.Reason, td.Status)
	}
	if len(td.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	root := td.Spans[0]
	if root.Name != "POST /v1/complete" {
		t.Errorf("root span = %q", root.Name)
	}
	stages := map[string]bool{}
	for _, s := range td.Spans[1:] {
		stages[s.Name] = true
		if s.ParentID == "" {
			t.Errorf("span %q has no parent", s.Name)
		}
		if s.OffsetMs+s.DurationMs > td.DurationMs+5 {
			t.Errorf("span %q (%f+%fms) exceeds the trace's %fms",
				s.Name, s.OffsetMs, s.DurationMs, td.DurationMs)
		}
		if s.Name == "search" {
			if _, ok := s.Attrs["calls"]; !ok {
				t.Errorf("search span missing kernel stats: %+v", s.Attrs)
			}
			// The search span carries the kernel's own counts.
			if v, ok := s.Attrs["calls"].(float64); !ok || v <= 0 {
				t.Errorf("search span calls = %v", s.Attrs["calls"])
			}
		}
	}
	for _, want := range []string{"admit", "snapshot", "cache", "singleflight", "search"} {
		if !stages[want] {
			t.Errorf("span tree missing stage %q (have %v)", want, stages)
		}
	}
	if root.Attrs[obs.AttrExpr] != "ta~name" || root.Attrs[obs.AttrShape] != "_~_" ||
		root.Attrs[obs.AttrSchema] != "university" || root.Attrs[obs.AttrEngine] != engineSearch {
		t.Errorf("root attrs = %+v", root.Attrs)
	}
	// The trace's duration and the envelope's duration time the same
	// request; allow generous slack for the middleware bracketing.
	if td.DurationMs+50 < env.Meta.DurationMs {
		t.Errorf("trace %.3fms shorter than meta.durationMs %.3fms", td.DurationMs, env.Meta.DurationMs)
	}

	// The latency histograms carry an exemplar referencing the trace —
	// on the OpenMetrics rendering only, which a scraper opts into via
	// the Accept header; the classic 0.0.4 text format cannot carry the
	// annotation without breaking stock parsers.
	mreq, err := http.NewRequest(http.MethodGet, ts+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	mreq.Header.Set("Accept", "application/openmetrics-text;version=1.0.0")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, mresp)
	if !strings.Contains(metrics, `# {trace_id="`+forcedTraceID+`"}`) {
		t.Error("/metrics carries no exemplar for the forced trace")
	}
	// A plain text-format scrape of the same registry must stay free of
	// exemplar syntax (a stock Prometheus parser rejects it).
	plainResp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if plain := readAll(t, plainResp); strings.Contains(plain, "# {") {
		t.Error("plain /metrics scrape carries exemplar syntax")
	}
	// Satellite: the runtime metrics ride the same scrape.
	for _, m := range []string{"go_goroutines", "go_memstats_heap_inuse_bytes",
		"go_gc_pause_nanoseconds_total", "pathcomplete_engine_pool_served_total"} {
		if !strings.Contains(metrics, m+" ") {
			t.Errorf("/metrics missing runtime metric %s", m)
		}
	}
}

// TestTraceSurfaceEnvelopes pins /v1/traces and /v1/queries/slow:
// list shape, limit handling, the not_found code, and the slow log.
func TestTraceSurfaceEnvelopes(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	// Everything sampled, everything slow: both surfaces fill from one
	// request.
	sv.SetTracing(obs.TraceConfig{SampleRate: 1, SlowThreshold: time.Nanosecond})
	ts := newTS(t, sv)

	resp, body := post(t, ts+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Meta.TraceID == "" {
		t.Fatal("meta.traceId empty with SampleRate 1")
	}
	waitTrace(t, ts, env.Meta.TraceID)

	t.Run("traces list", func(t *testing.T) {
		resp, body := get(t, ts+"/v1/traces")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		lenv := decodeEnvelope(t, body)
		var out struct {
			Traces []TraceDataJSON `json:"traces"`
			Stats  obs.TraceStats  `json:"stats"`
		}
		if err := json.Unmarshal(lenv.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if len(out.Traces) == 0 || out.Stats.RootsEnded == 0 {
			t.Errorf("traces = %d, stats = %+v", len(out.Traces), out.Stats)
		}

		// ?limit bounds the list; a bad limit is a 400.
		resp, body = get(t, ts+"/v1/traces?limit=0")
		lenv = decodeEnvelope(t, body)
		if err := json.Unmarshal(lenv.Data, &out); err != nil || len(out.Traces) != 0 {
			t.Errorf("limit=0 returned %d traces (err %v)", len(out.Traces), err)
		}
		resp, body = get(t, ts+"/v1/traces?limit=bogus")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("limit=bogus status = %d: %s", resp.StatusCode, body)
		}
		if e := decodeEnvelope(t, body).Error; e == nil || e.Code != CodeBadRequest {
			t.Errorf("limit=bogus error = %+v", e)
		}
	})

	t.Run("trace not found", func(t *testing.T) {
		resp, body := get(t, ts+"/v1/traces/ffffffffffffffffffffffffffffffff")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		env := decodeEnvelope(t, body)
		if !isNullData(env.Data) {
			t.Errorf("data = %s on a miss", env.Data)
		}
		if env.Error == nil || env.Error.Code != CodeNotFound {
			t.Errorf("error = %+v, want code %q", env.Error, CodeNotFound)
		}
	})

	t.Run("slow queries", func(t *testing.T) {
		var out SlowQueriesResponse
		// The slow entry lands at root finalize; retry like waitTrace.
		for i := 0; i < 50 && len(out.Queries) == 0; i++ {
			resp, body := get(t, ts+"/v1/queries/slow")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
			if err := json.Unmarshal(decodeEnvelope(t, body).Data, &out); err != nil {
				t.Fatalf("decode data: %v", err)
			}
			if len(out.Queries) == 0 {
				time.Sleep(10 * time.Millisecond)
			}
		}
		if out.ThresholdMs <= 0 {
			t.Errorf("thresholdMs = %v", out.ThresholdMs)
		}
		if len(out.Queries) == 0 {
			t.Fatal("slow log empty with a nanosecond threshold")
		}
		q := out.Queries[len(out.Queries)-1] // oldest = the completion above
		if q.Expr != "ta~name" || q.Shape != "_~_" || q.Schema != "university" {
			t.Errorf("slow query = %+v", q)
		}
		if q.TraceID == "" || len(q.Stages) == 0 {
			t.Errorf("slow query missing trace linkage: %+v", q)
		}
	})
}

// get is the GET twin of post.
func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp, readAll(t, resp)
}

// TestTraceHeadersOnLegacyRoutes: the inbound request ID and
// traceparent are echoed on the response, and the forced trace is
// retained under its route; an unsampled request records nothing.
func TestTraceHeadersOnLegacyRoutes(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	ts := newTS(t, sv)

	req, err := http.NewRequest(http.MethodPost, ts+"/v1/complete", strings.NewReader(`{"expr":"ta~name"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "test-req-42")
	req.Header.Set(obs.TraceparentHeader, forcedTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got := resp.Header.Get(obs.RequestIDHeader); got != "test-req-42" {
		t.Errorf("X-Request-Id = %q, want the inbound ID echoed", got)
	}
	if tp := resp.Header.Get(obs.TraceparentHeader); !strings.Contains(tp, forcedTraceID) {
		t.Errorf("traceparent = %q, want trace %s", tp, forcedTraceID)
	}
	// The trace is retained like any sampled trace, named by its route.
	td := waitTrace(t, ts, forcedTraceID)
	if td.Spans[0].Name != "POST /v1/complete" {
		t.Errorf("root span = %q", td.Spans[0].Name)
	}

	// An untraced request on the default pipeline records nothing and
	// carries no traceparent or meta.traceId.
	resp2, body := post(t, ts+"/v1/complete", `{"expr":"ta~name"}`)
	if resp2.Header.Get(obs.TraceparentHeader) != "" {
		t.Errorf("unsampled response grew a traceparent: %q", resp2.Header.Get(obs.TraceparentHeader))
	}
	if env := decodeEnvelope(t, body); env.Meta.TraceID != "" {
		t.Errorf("unsampled meta.traceId = %q", env.Meta.TraceID)
	}
}

// TestTraceReloadDrill runs queries (half of them sampled), /metrics
// scrapes, and schema hot reloads concurrently under -race, then
// checks the pipeline's books: no active spans, every root accounted
// to exactly one outcome.
func TestTraceReloadDrill(t *testing.T) {
	sv, ts, dir := multiServer(t, map[string]string{"alpha": msSchemaV1})
	sv.SetTracing(obs.TraceConfig{SampleRate: 0.5, SlowThreshold: 50 * time.Millisecond, BufferSize: 32})

	const clients = 4
	var stop atomic.Bool
	var non200 atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, _ := post(t, ts.URL+"/v1/complete?schema=alpha", `{"expr":"a~name"}`)
				if resp.StatusCode != http.StatusOK {
					non200.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // concurrent scraper: exemplars + trace list under load
		defer wg.Done()
		for !stop.Load() {
			get(t, ts.URL+"/metrics")
			get(t, ts.URL+"/v1/traces")
		}
	}()

	for g := 0; g < 20; g++ {
		text := msSchemaV1
		if g%2 == 0 {
			text = msSchemaV2
		}
		msWriteDir(t, dir, map[string]string{"alpha": text})
		if resp, body := post(t, ts.URL+"/v1/schemas/reload", `{}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status = %d: %s", g, resp.StatusCode, body)
		}
	}
	stop.Store(true)
	wg.Wait()

	if non200.Load() != 0 {
		t.Errorf("%d non-200 responses during the drill", non200.Load())
	}
	// Settle, then audit the books.
	deadline := time.Now().Add(5 * time.Second)
	var st obs.TraceStats
	for {
		st = sv.Tracing().Stats()
		if st.ActiveSpans == 0 && st.RootsStarted == st.RootsEnded || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.ActiveSpans != 0 {
		t.Errorf("leaked %d active spans", st.ActiveSpans)
	}
	if st.RootsStarted != st.RootsEnded {
		t.Errorf("roots: %d started, %d ended", st.RootsStarted, st.RootsEnded)
	}
	if got := st.KeptSampled + st.KeptSlow + st.KeptError + st.Discarded; got != st.RootsEnded {
		t.Errorf("retention accounting = %d, want %d (%+v)", got, st.RootsEnded, st)
	}
	if st.KeptSampled == 0 {
		t.Error("no sampled traces across the whole drill")
	}
	t.Logf("drill stats: %+v", st)
}
