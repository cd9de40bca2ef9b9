package server

// Tests for the observability layer of the server: the /metrics
// exposition, per-query tracing over HTTP, the bounded memo cache,
// the JSON health endpoint, build introspection, and pprof mounting.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/uni"
)

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, string(b)
}

// metricValue extracts the value of an exactly-named sample line from
// an exposition body, or -1 when absent.
func metricValue(text, sample string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			fmt.Sscanf(rest, "%g", &v)
			return v
		}
	}
	return -1
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t, false)
	// One miss, one hit, one parse failure.
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	post(t, ts.URL+"/v1/complete", `{"expr":"ta ~ name"}`)
	post(t, ts.URL+"/v1/complete", `{"expr":"ta..name"}`)

	resp, text := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}

	// Families and types present (valid exposition shape).
	for _, want := range []string{
		"# TYPE pathcomplete_search_traverse_calls_total counter",
		"# TYPE pathcomplete_search_duration_seconds histogram",
		"# TYPE pathcomplete_cache_hits_total counter",
		"# TYPE http_requests_total counter",
		"# TYPE http_request_duration_seconds histogram",
		"# TYPE http_in_flight_requests gauge",
		`pathcomplete_search_duration_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Search effort aggregated from core.Stats: ta~name costs a known
	// 27 traverse calls on the university schema under Exact().
	if v := metricValue(text, "pathcomplete_search_traverse_calls_total"); v <= 0 {
		t.Errorf("traverse calls = %g, want > 0", v)
	}
	if v := metricValue(text, "pathcomplete_search_offers_total"); v <= 0 {
		t.Errorf("offers = %g, want > 0", v)
	}
	if v := metricValue(text, "pathcomplete_searches_total"); v != 1 {
		t.Errorf("searches = %g, want 1", v)
	}
	if v := metricValue(text, "pathcomplete_cache_hits_total"); v != 1 {
		t.Errorf("cache hits = %g, want 1", v)
	}
	if v := metricValue(text, "pathcomplete_cache_misses_total"); v != 1 {
		t.Errorf("cache misses = %g, want 1", v)
	}
	if v := metricValue(text, "pathcomplete_cache_entries"); v != 1 {
		t.Errorf("cache entries = %g, want 1", v)
	}
	if v := metricValue(text, `http_requests_total{path="/v1/complete",method="POST",code="200"}`); v != 2 {
		t.Errorf("complete 200s = %g, want 2", v)
	}
	if v := metricValue(text, `http_requests_total{path="/v1/complete",method="POST",code="400"}`); v != 1 {
		t.Errorf("complete 400s = %g, want 1", v)
	}
	// The scrape observes itself mid-flight: exactly one request (the
	// GET /metrics rendering this exposition) is in progress.
	if v := metricValue(text, "http_in_flight_requests"); v != 1 {
		t.Errorf("in-flight during scrape = %g, want 1 (the scrape itself)", v)
	}
}

// TestExhaustedCountsMaxCallsStops: the exhausted counter reads the
// search's stop reason, so a MaxCalls stop counts and no other does.
func TestExhaustedCountsMaxCallsStops(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	for _, stop := range []core.StopReason{core.StopNone, core.StopMaxCalls, core.StopDeadline, core.StopCanceled} {
		m.observeSearch(&core.Result{Aborted: stop != core.StopNone, StopReason: stop}, 0, "")
	}
	if got := m.exhausted.Value(); got != 1 {
		t.Errorf("pathcomplete_search_exhausted_total = %d after one max_calls stop among four searches, want 1", got)
	}
}

func TestCompleteTrace(t *testing.T) {
	ts := testServer(t, false)
	// Warm the cache so we can prove tracing bypasses it.
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)

	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name","trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out CompleteResponse
	decodeData(t, body, &out)
	if out.Cached {
		t.Error("traced request must not be served from cache")
	}
	if len(out.Trace) == 0 {
		t.Fatal("trace missing from response")
	}
	if first := out.Trace[0]; first.Kind != "enter" || first.Class != "ta" {
		t.Errorf("first trace event = %+v", first)
	}
	if out.Stats == nil || out.Stats.Calls != out.Calls || out.Stats.Calls == 0 {
		t.Errorf("stats = %+v, calls = %d", out.Stats, out.Calls)
	}
	if len(out.Completions) != 2 {
		t.Errorf("completions = %+v", out.Completions)
	}
	// Trace events match the reported effort: one enter per call.
	enters := 0
	for _, ev := range out.Trace {
		if ev.Kind == "enter" {
			enters++
		}
	}
	if enters != out.Calls {
		t.Errorf("enter events = %d, calls = %d", enters, out.Calls)
	}

	// traceLimit caps the log and reports the overflow.
	_, body2 := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name","trace":true,"traceLimit":3}`)
	var out2 CompleteResponse
	decodeData(t, body2, &out2)
	if len(out2.Trace) != 3 || out2.TraceDropped == 0 {
		t.Errorf("limited trace = %d events, dropped = %d", len(out2.Trace), out2.TraceDropped)
	}

	// An untraced request has no trace payload.
	_, body3 := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if strings.Contains(body3, `"trace"`) {
		t.Errorf("untraced response carries a trace: %s", body3)
	}
}

func TestHealthzJSON(t *testing.T) {
	ts := testServer(t, false)
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Status        string  `json:"status"`
		Schema        string  `json:"schema"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	if out.Status != "ok" || out.Schema != "university" {
		t.Errorf("healthz = %+v", out)
	}
	if out.UptimeSeconds < 0 {
		t.Errorf("uptime = %g", out.UptimeSeconds)
	}
}

func TestBuildInfoEndpoint(t *testing.T) {
	ts := testServer(t, false)
	resp, body := getBody(t, ts.URL+"/buildinfo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v, _ := out["goVersion"].(string); !strings.HasPrefix(v, "go") {
		t.Errorf("goVersion = %v", out["goVersion"])
	}
	if n, _ := out["goroutines"].(float64); n < 1 {
		t.Errorf("goroutines = %v", out["goroutines"])
	}
}

func TestCacheEviction(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	sv.SetCacheCap(2)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	exprs := []string{"ta~name", "ta~course", "student~department"}
	for _, e := range exprs {
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"`+e+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", e, resp.StatusCode, body)
		}
	}
	sv.mu.Lock()
	size := sv.cache.len()
	sv.mu.Unlock()
	if size != 2 {
		t.Errorf("cache size = %d, want bound 2", size)
	}
	_, text := getBody(t, ts.URL+"/metrics")
	if v := metricValue(text, "pathcomplete_cache_evictions_total"); v != 1 {
		t.Errorf("evictions = %g, want 1", v)
	}
	if v := metricValue(text, "pathcomplete_cache_entries"); v != 2 {
		t.Errorf("cache entries gauge = %g, want 2", v)
	}
	// The evicted entry (the oldest) recomputes: miss count rises.
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	_, text = getBody(t, ts.URL+"/metrics")
	if v := metricValue(text, "pathcomplete_cache_misses_total"); v != 4 {
		t.Errorf("misses = %g, want 4 (evicted entry recomputed)", v)
	}
}

func TestLRURecency(t *testing.T) {
	c := newShardedCache(2)
	r := &core.Result{}
	sh := shardID{schema: "uni", gen: 1}
	key := func(expr string) cacheKey { return cacheKey{shard: sh, expr: expr, e: 1} }
	c.put(key("a"), r)
	c.put(key("b"), r)
	if _, ok := c.get(key("a")); !ok {
		t.Fatal("a missing")
	}
	// a was refreshed, so inserting c evicts b.
	if ev := c.put(key("c"), r); ev != 1 {
		t.Errorf("evicted = %d", ev)
	}
	if _, ok := c.get(key("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get(key("a")); !ok {
		t.Error("a should survive (recently used)")
	}
	// Re-putting an existing key is a refresh, not growth.
	if ev := c.put(key("a"), r); ev != 0 || c.len() != 2 {
		t.Errorf("refresh: evicted=%d len=%d", ev, c.len())
	}
}

func TestPProfMounting(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())

	tsOff := httptest.NewServer(sv.Handler())
	defer tsOff.Close()
	resp, _ := getBody(t, tsOff.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status = %d, want 404", resp.StatusCode)
	}

	tsOn := httptest.NewServer(sv.HandlerWith(HandlerConfig{PProf: true}))
	defer tsOn.Close()
	resp, body := getBody(t, tsOn.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof on: status = %d", resp.StatusCode)
	}
	resp, _ = getBody(t, tsOn.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status = %d", resp.StatusCode)
	}
}

func TestRequestIDHeader(t *testing.T) {
	ts := testServer(t, false)
	resp, _ := getBody(t, ts.URL+"/healthz")
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id response header")
	}
}

// TestConcurrentCompleteAndScrape drives completions from many
// goroutines while scraping /metrics — the -race proof for the
// server's cache and metrics wiring.
func TestConcurrentCompleteAndScrape(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	sv.SetCacheCap(2) // force concurrent evictions too
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	exprs := []string{"ta~name", "ta~course", "student~department", "professor~name"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body := `{"expr":"` + exprs[(w+i)%len(exprs)] + `"`
				if i%3 == 0 {
					body += `,"trace":true`
				}
				body += `}`
				resp, err := http.Post(ts.URL+"/v1/complete", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d", resp.StatusCode)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(done)

	_, text := getBody(t, ts.URL+"/metrics")
	hits := metricValue(text, "pathcomplete_cache_hits_total")
	misses := metricValue(text, "pathcomplete_cache_misses_total")
	// Each worker traces 4 of its 10 requests (i%3==0). Traced
	// requests never perform a cache lookup, so they count neither as
	// a hit nor as a miss; the other 48 count exactly one of the two.
	if hits+misses != 48 {
		t.Errorf("hits(%g) + misses(%g) != 48 untraced requests", hits, misses)
	}
}
