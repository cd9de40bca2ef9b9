package server

// Tests for the hardened serving path: input validation, admission
// control (shed and queue-timeout), per-request deadlines degrading to
// partial answers, body-size caps, panic isolation, singleflight
// collapsing, and the cache-accounting and encode-failure fixes.

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"
)

// slowSchema builds a deterministic layered schema — l layers of w
// classes, fully associated layer to layer, "label" attributes on the
// last layer — whose completion search for l0w0~label costs w^(l-1)
// equally-labeled paths: nothing prunes, so the full search takes long
// enough (hundreds of ms and up) for a request deadline to expire
// mid-traversal.
func slowSchema(t testing.TB, w, l int) *schema.Schema {
	t.Helper()
	b := schema.NewBuilder(fmt.Sprintf("layered-%dx%d", w, l))
	name := func(i, j int) string { return fmt.Sprintf("l%dw%d", i, j) }
	for i := 0; i < l; i++ {
		for j := 0; j < w; j++ {
			b.Class(name(i, j))
		}
	}
	k := 0
	for i := 0; i+1 < l; i++ {
		for j := 0; j < w; j++ {
			for j2 := 0; j2 < w; j2++ {
				b.Assoc(name(i, j), name(i+1, j2), fmt.Sprintf("as%d", k), fmt.Sprintf("sa%d", k))
				k++
			}
		}
	}
	for j := 0; j < w; j++ {
		b.Attr(name(l-1, j), "label", "C")
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("slowSchema(%d, %d): %v", w, l, err)
	}
	return s
}

// newTestSrv returns a server plus an httptest wrapper over its
// handler, with the in-package *Server exposed for direct assertions
// on gates, caches, and counters.
func newTestSrv(t *testing.T, s *schema.Schema) (*Server, *httptest.Server) {
	t.Helper()
	sv := New(s, nil, core.Exact())
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return sv, ts
}

func TestValidationRejects(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())
	sv.SetLimits(Limits{MaxExprLen: 32, MaxE: 8, MaxTraceEvents: 100})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"missing expr", `{}`, http.StatusBadRequest},
		{"expr too long", `{"expr":"` + strings.Repeat("a", 64) + `"}`, http.StatusBadRequest},
		{"e too big", `{"expr":"ta~name","e":9}`, http.StatusBadRequest},
		{"e negative", `{"expr":"ta~name","e":-1}`, http.StatusBadRequest},
		{"traceLimit too big", `{"expr":"ta~name","trace":true,"traceLimit":101}`, http.StatusBadRequest},
		{"traceLimit negative", `{"expr":"ta~name","traceLimit":-5}`, http.StatusBadRequest},
		{"timeoutMs negative", `{"expr":"ta~name","timeoutMs":-1}`, http.StatusBadRequest},
		{"malformed JSON", `{"expr":`, http.StatusBadRequest},
		{"unparsable expr", `{"expr":"ta..name"}`, http.StatusBadRequest},
		{"within bounds", `{"expr":"ta~name","e":8,"timeoutMs":5000}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/complete", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			// Every answer on the hardened path is a JSON envelope.
			env := decodeEnvelope(t, body)
			if tc.wantStatus != http.StatusOK && (env.Error == nil || env.Error.Message == "") {
				t.Errorf("error envelope missing its message: %s", body)
			}
		})
	}
}

func TestAdmissionShed429(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())
	// One slot, no queue: with the slot held, the next request sheds.
	sv.SetLimits(Limits{MaxConcurrent: 1, MaxQueue: -1})
	if sv.gate.acquire(context.Background()) != nil {
		t.Fatal("could not occupy the only admission slot")
	}
	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if env := decodeEnvelope(t, body); env.Error == nil || !strings.Contains(env.Error.Message, "overloaded") {
		t.Errorf("429 body = %s", body)
	}
	if got := sv.met.sheds.Value(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}

	// Releasing the slot restores service.
	sv.gate.release()
	resp, body = post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status = %d (body %s)", resp.StatusCode, body)
	}
}

func TestAdmissionQueueTimeout503(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())
	// One slot with a queue: the next request waits, its deadline
	// expires, and it is answered 503 (not 429 — it was queued, not
	// shed).
	sv.SetLimits(Limits{MaxConcurrent: 1, MaxQueue: 4})
	if sv.gate.acquire(context.Background()) != nil {
		t.Fatal("could not occupy the only admission slot")
	}
	defer sv.gate.release()
	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name","timeoutMs":20}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	decodeEnvelope(t, body)
	if got := sv.met.timeouts.Value(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

// TestTimeoutDegradesToPartial is the acceptance scenario: a request
// whose timeoutMs expires mid-search gets HTTP 200 with the valid
// best-so-far completions and a non-empty stop reason — never a 5xx.
func TestTimeoutDegradesToPartial(t *testing.T) {
	sv, ts := newTestSrv(t, slowSchema(t, 4, 8))
	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"l0w0~label","timeoutMs":50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	var out CompleteResponse
	decodeData(t, body, &out)
	if !out.Aborted || out.StopReason != string(core.StopDeadline) {
		t.Fatalf("aborted=%v stopReason=%q, want an aborted deadline stop", out.Aborted, out.StopReason)
	}
	if len(out.Completions) == 0 {
		t.Error("partial result carries no completions (search had time to offer thousands)")
	}
	for _, c := range out.Completions {
		if !strings.HasPrefix(c.Path, "l0w0") || !strings.HasSuffix(c.Path, ".label") {
			t.Errorf("partial completion %q is not a valid root-to-label path", c.Path)
		}
	}
	if got := sv.met.timeouts.Value(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	// Partial results are never memoized: a rerun with a generous
	// budget must run fresh and not be served the truncated answer.
	if n := sv.cache.len(); n != 0 {
		t.Errorf("aborted result was cached (%d entries)", n)
	}
	_, body2 := post(t, ts.URL+"/v1/complete", `{"expr":"l0w0~label","timeoutMs":60}`)
	var out2 CompleteResponse
	decodeData(t, body2, &out2)
	if out2.Cached {
		t.Error("rerun was served from cache after an aborted search")
	}
}

func TestBodyTooLarge413(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())
	sv.SetLimits(Limits{MaxBodyBytes: 128})
	big := `{"expr":"` + strings.Repeat("x", 1024) + `"}`
	resp, body := post(t, ts.URL+"/v1/complete", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", resp.StatusCode, body)
	}
	decodeEnvelope(t, body)
}

func TestPanicRecovery(t *testing.T) {
	if err := faultinject.ArmSpec("panic=1,seed=1,points=server.complete"); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	defer faultinject.Disarm()
	var logBuf bytes.Buffer
	sv := New(uni.New(), nil, core.Exact())
	ts := httptest.NewServer(sv.HandlerWith(HandlerConfig{
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil)),
	}))
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error == nil || env.Error.Message != "internal error" {
		t.Errorf("500 body = %s", body)
	}
	if got := sv.met.panicsRecovered.Value(); got != 1 {
		t.Errorf("panicsRecovered = %d, want 1", got)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "panic recovered") || !strings.Contains(logged, "injected panic at server.complete") {
		t.Errorf("panic not logged:\n%s", logged)
	}

	// The process keeps serving: disarm and the same request succeeds.
	faultinject.Disarm()
	resp, body = post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after disarm: status = %d (body %s)", resp.StatusCode, body)
	}
}

// TestSingleflightGroup pins the collapsing contract deterministically:
// followers that arrive while the leader runs share its result, and a
// follower whose context ends first abandons the flight alone.
func TestSingleflightGroup(t *testing.T) {
	g := newFlightGroup()
	key := cacheKey{expr: "k", e: 2}
	started := make(chan struct{})
	unblock := make(chan struct{})
	want := completed{cached: true}

	var leaderC completed
	var leaderShared bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var status int
		var err error
		leaderC, status, err, leaderShared = g.do(context.Background(), key, func() (completed, int, error) {
			close(started)
			<-unblock
			return want, http.StatusOK, nil
		})
		if status != http.StatusOK || err != nil {
			t.Errorf("leader: status=%d err=%v", status, err)
		}
	}()
	<-started

	// A follower with an already-ended context abandons the flight.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, status, err, shared := g.do(ctx, key, func() (completed, int, error) {
		t.Error("canceled follower ran the search")
		return completed{}, 0, nil
	})
	if !shared || err == nil || status != 0 {
		t.Errorf("canceled follower: shared=%v status=%d err=%v", shared, status, err)
	}

	// A patient follower shares the leader's result.
	wg.Add(1)
	var followerC completed
	var followerShared bool
	go func() {
		defer wg.Done()
		var status int
		var err error
		followerC, status, err, followerShared = g.do(context.Background(), key, func() (completed, int, error) {
			t.Error("follower ran the search")
			return completed{}, 0, nil
		})
		if status != http.StatusOK || err != nil {
			t.Errorf("follower: status=%d err=%v", status, err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the follower join the flight
	close(unblock)
	wg.Wait()
	if leaderShared {
		t.Error("leader reported shared")
	}
	if !followerShared || followerC.cached != want.cached {
		t.Errorf("follower: shared=%v c=%+v", followerShared, followerC)
	}
	if leaderC.cached != want.cached {
		t.Errorf("leader result %+v", leaderC)
	}

	// The flight is gone: a fresh call runs its own search.
	_, _, _, shared = g.do(context.Background(), key, func() (completed, int, error) {
		return completed{}, http.StatusOK, nil
	})
	if shared {
		t.Error("post-flight call reported shared")
	}
}

// TestSingleflightPanicSettles: a panicking leader must not strand its
// followers — they get a 500 outcome and the flight is cleaned up.
func TestSingleflightPanicSettles(t *testing.T) {
	g := newFlightGroup()
	key := cacheKey{expr: "boom", e: 2}
	started := make(chan struct{})
	proceed := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }() // stand in for the recovery middleware
		g.do(context.Background(), key, func() (completed, int, error) {
			close(started)
			<-proceed
			panic("leader exploded")
		})
	}()
	<-started

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, status, err, shared := g.do(context.Background(), key, func() (completed, int, error) {
			t.Error("follower ran the search")
			return completed{}, 0, nil
		})
		if !shared || status != http.StatusInternalServerError || err == nil {
			t.Errorf("follower of panicked leader: shared=%v status=%d err=%v", shared, status, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(proceed)
	wg.Wait()

	g.mu.Lock()
	left := len(g.m)
	g.mu.Unlock()
	if left != 0 {
		t.Errorf("%d flights leaked after a panic", left)
	}
}

// TestSingleflightOverHTTP drives the collapse end to end: concurrent
// identical cold requests against a slow search share one result. The
// search is sized to take well under a second, even under -race, so
// every request finishes far inside the default request deadline
// (DefaultMaxTimeout); a follower whose own deadline passes first gets
// a 503, which TestSingleflightGroup pins deterministically.
func TestSingleflightOverHTTP(t *testing.T) {
	sv, ts := newTestSrv(t, slowSchema(t, 4, 7))
	const followers = 3
	body := `{"expr":"l0w0~label"}`

	var wg sync.WaitGroup
	statuses := make([]int, followers+1)
	bodies := make([]string, followers+1)
	send := func(i int) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		statuses[i], bodies[i] = resp.StatusCode, readAll(t, resp)
	}
	wg.Add(1)
	go send(0) // leader
	// Launch the followers only once the leader's flight is registered
	// (a blind sleep races a fast machine: the search must merely
	// outlive the followers' local round trips, not the sleep).
	for deadline := time.Now().Add(5 * time.Second); ; {
		sv.flights.mu.Lock()
		inFlight := len(sv.flights.m)
		sv.flights.mu.Unlock()
		if inFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go send(i)
	}
	wg.Wait()
	results := make([]CompleteResponse, followers+1)
	for i, b := range bodies {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status = %d, want 200: %s", i, statuses[i], b)
		}
		if env := decodeData(t, b, &results[i]); env.Error != nil {
			t.Fatalf("request %d: error = %+v, want null", i, env.Error)
		}
	}
	if got := sv.met.singleflightShared.Value(); got == 0 {
		t.Error("no request shared the in-flight search")
	}
	if got := sv.met.searches.Value(); got != 1 {
		t.Errorf("searches = %d, want 1 (the stampede collapsed)", got)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i].Completions) != len(results[0].Completions) {
			t.Errorf("request %d: %d completions, leader had %d",
				i, len(results[i].Completions), len(results[0].Completions))
		}
	}
}

// TestSingleflightFollowerOfAbortedLeader: the flight key leaves the
// request's deadline out, and the leader's own context bounds the
// shared search, so a follower must not inherit the leader's early
// stop. A leader with a 20 ms budget stops on its deadline; its two
// followers, which set no timeout, go back through the flight: one
// leads a new search, the other shares it, and both get every
// completion.
func TestSingleflightFollowerOfAbortedLeader(t *testing.T) {
	sv, ts := newTestSrv(t, slowSchema(t, 4, 7))
	const expr = "l0w0~label"
	type answer struct {
		status int
		body   string
	}
	fetch := func(body string, out chan<- answer) {
		resp, err := http.Post(ts.URL+"/v1/complete", "application/json", strings.NewReader(body))
		if err != nil {
			out <- answer{body: err.Error()}
			return
		}
		out <- answer{resp.StatusCode, readAll(t, resp)}
	}
	leader := make(chan answer, 1)
	go fetch(`{"expr":"`+expr+`","timeoutMs":20}`, leader)
	for deadline := time.Now().Add(5 * time.Second); ; {
		sv.flights.mu.Lock()
		inFlight := len(sv.flights.m)
		sv.flights.mu.Unlock()
		if inFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	followers := make(chan answer, 2)
	go fetch(`{"expr":"`+expr+`"}`, followers)
	go fetch(`{"expr":"`+expr+`"}`, followers)

	var lead CompleteResponse
	decodeData(t, (<-leader).body, &lead)
	if !lead.Aborted || lead.StopReason != string(core.StopDeadline) {
		t.Fatalf("leader: aborted=%v stopReason=%q, want a deadline stop", lead.Aborted, lead.StopReason)
	}
	shared := 0
	for i := 0; i < 2; i++ {
		a := <-followers
		if a.status != http.StatusOK {
			t.Fatalf("follower: status = %d, want 200: %s", a.status, a.body)
		}
		var follower CompleteResponse
		decodeData(t, a.body, &follower)
		if follower.Aborted || follower.StopReason != "" {
			t.Errorf("follower: aborted=%v stopReason=%q, want a full search",
				follower.Aborted, follower.StopReason)
		}
		if want := 4 * 4 * 4 * 4 * 4 * 4; len(follower.Completions) != want {
			t.Errorf("follower: %d completions, want %d", len(follower.Completions), want)
		}
		if follower.Shared {
			shared++
		}
	}
	if shared != 1 {
		t.Errorf("%d of 2 followers shared, want 1: one leads the new search, the other shares it", shared)
	}
	if got := sv.met.singleflightShared.Value(); got != 1 {
		t.Errorf("singleflightShared = %d, want 1", got)
	}
	if got := sv.met.searches.Value(); got != 2 {
		t.Errorf("searches = %d, want 2: the leader's and one more for both followers", got)
	}
}

// TestCacheMissAccounting pins the satellite fix: traced requests
// bypass the cache entirely and must count neither a hit nor a miss.
func TestCacheMissAccounting(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())
	read := func() (hits, misses uint64) {
		return sv.met.cacheHits.Value(), sv.met.cacheMisses.Value()
	}

	// A traced request runs a fresh search without a cache lookup: it
	// counts neither a hit nor a miss (it does store its result).
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~name","trace":true}`)
	if h, m := read(); h != 0 || m != 0 {
		t.Fatalf("after traced request: hits=%d misses=%d, want 0/0", h, m)
	}
	// An untraced request for what the traced search stored is a hit.
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if h, m := read(); h != 1 || m != 0 {
		t.Fatalf("after request warmed by trace: hits=%d misses=%d, want 1/0", h, m)
	}
	// A genuinely cold untraced request is a miss...
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~credits"}`)
	if h, m := read(); h != 1 || m != 1 {
		t.Fatalf("after cold request: hits=%d misses=%d, want 1/1", h, m)
	}
	// ...and its rerun a hit.
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~credits"}`)
	if h, m := read(); h != 2 || m != 1 {
		t.Fatalf("after warm request: hits=%d misses=%d, want 2/1", h, m)
	}
	// Another traced request still counts neither.
	post(t, ts.URL+"/v1/complete", `{"expr":"ta~credits","trace":true}`)
	if h, m := read(); h != 2 || m != 1 {
		t.Fatalf("after second traced request: hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestWriteJSONEncodeFailure pins the satellite fix: an unencodable
// response body is counted and logged, not silently dropped.
func TestWriteJSONEncodeFailure(t *testing.T) {
	var logBuf bytes.Buffer
	sv := New(uni.New(), nil, core.Exact())
	sv.logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/healthz", nil)

	sv.writeJSON(w, r, http.StatusOK, map[string]any{"f": func() {}})
	if got := sv.met.encodeFailures.Value(); got != 1 {
		t.Errorf("encodeFailures = %d, want 1", got)
	}
	if logged := logBuf.String(); !strings.Contains(logged, "response encode failed") {
		t.Errorf("encode failure not logged:\n%s", logged)
	}

	// The healthy path does not count.
	sv.writeJSON(httptest.NewRecorder(), r, http.StatusOK, map[string]any{"ok": true})
	if got := sv.met.encodeFailures.Value(); got != 1 {
		t.Errorf("encodeFailures after healthy write = %d, want 1", got)
	}
}

// TestInflightGauge: the admission gauge rises while a search holds a
// slot and settles back to zero.
func TestInflightGauge(t *testing.T) {
	sv, ts := newTestSrv(t, slowSchema(t, 4, 7))
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, ts.URL+"/v1/complete", `{"expr":"l0w0~label","timeoutMs":200}`)
	}()
	// Sample while the bounded search is in flight.
	deadline := time.Now().Add(2 * time.Second)
	seen := false
	for time.Now().Before(deadline) {
		if sv.met.inflight.Value() == 1 {
			seen = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	if !seen {
		t.Error("inflight gauge never reached 1 during a search")
	}
	if got := sv.met.inflight.Value(); got != 0 {
		t.Errorf("inflight after completion = %d, want 0", got)
	}
}
