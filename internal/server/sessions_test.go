package server

// Server-level tests of the interactive session endpoint: the full
// handler chain (metrics middleware, panic recovery, hijack, session
// cap) with real WebSocket clients from the sessiontest harness, plus
// the reload-rebind regression and the chaos drill (many concurrent
// sessions racing reloads and injected session faults).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/session/sessiontest"
	"pathcomplete/internal/uni"
)

// sessionURL rewrites an httptest base URL into the session endpoint.
func sessionURL(ts *httptest.Server) string { return ts.URL + "/v1/sessions" }

// waitSessionsClosed blocks until the server has released every
// session slot. A client can read its last final frame before the
// server ticks the finals counter — the counter moves only once the
// frame is on the wire — but the handler releases the slot only after
// session.Run has joined both of its loops, so every event of a closed
// session has fired by then. Read session metrics after this, never
// right after Close.
func waitSessionsClosed(t *testing.T, sv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sv.sessions.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session slot never released: %d open", sv.sessions.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionKeystrokesOverServer is the acceptance path end to end:
// a scripted ta~n → ta~na → ta~nam session over the full handler
// stack, with the refinement keystrokes demonstrably reusing the
// prior traversal state (zero cold cells, zero traverse calls).
func TestSessionKeystrokesOverServer(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	c, err := sessiontest.Dial(sessionURL(ts), 10*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if c.Hello.Session == "" {
		t.Errorf("hello carries no session id")
	}
	if c.Hello.Schema != "university" {
		t.Errorf("hello schema = %q, want university", c.Hello.Schema)
	}

	exs := c.Type(t, "ta~n", "ta~na", "ta~nam")
	if st := exs[0].Final.Stats; st.Calls == 0 || st.Cold == 0 {
		t.Errorf("cold keystroke reported no work: %+v", st)
	}
	for _, ex := range exs[1:] {
		sessiontest.AssertReused(t, ex) // refinement: strictly fewer visits — zero
	}
	sessiontest.AssertRefines(t, exs[0], exs[1])
	sessiontest.AssertRefines(t, exs[1], exs[2])

	want := map[string]bool{
		"ta@>grad@>student@>person.name":                 true,
		"ta@>instructor@>teacher@>employee@>person.name": true,
	}
	final := exs[2].Final
	if len(final.Completions) != len(want) {
		t.Fatalf("ta~nam completions = %+v, want %d paths", final.Completions, len(want))
	}
	for _, cand := range final.Completions {
		if !want[cand.Path] {
			t.Errorf("unexpected completion %q", cand.Path)
		}
	}
	if final.Engine != "frontier" {
		t.Errorf("final engine = %q, want frontier", final.Engine)
	}
	c.Close()
	waitSessionsClosed(t, sv)

	if got := sv.met.sessionsTotal.Value(); got != 1 {
		t.Errorf("sessionsTotal = %d, want 1", got)
	}
	if got := sv.met.sessionFinals.Value(); got != 3 {
		t.Errorf("sessionFinals = %d, want 3", got)
	}
}

// TestSessionSupersededWhileQueued: a keystroke that waits for an
// admission slot when a newer keystroke arrives is answered skipped,
// not overloaded, and counts no request timeout: the newer one owns
// the answer, and gets it once the slot frees.
func TestSessionSupersededWhileQueued(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	sv.SetLimits(Limits{MaxConcurrent: 1, SessionDebounce: -1})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	if sv.gate.acquire(context.Background()) != nil {
		t.Fatal("could not occupy the only admission slot")
	}
	held := true
	defer func() {
		if held {
			sv.gate.release()
		}
	}()

	c, err := sessiontest.Dial(sessionURL(ts), 10*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	first, err := c.Send("ta~name")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sv.gate.queued() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first keystroke never queued for a slot")
		}
		time.Sleep(100 * time.Microsecond)
	}
	second, err := c.Send("ta~course")
	if err != nil {
		t.Fatal(err)
	}
	exs, err := c.Collect(first)
	if err != nil {
		t.Fatal(err)
	}
	if ex := exs[first]; !ex.Skipped {
		t.Errorf("superseded queued keystroke: skipped=%v error=%+v, want skipped", ex.Skipped, ex.Err)
	}
	sv.gate.release()
	held = false
	exs, err = c.Collect(second)
	if err != nil {
		t.Fatal(err)
	}
	if ex := exs[second]; ex.Final == nil || len(ex.Final.Completions) == 0 {
		t.Errorf("newer keystroke: final=%+v error=%+v, want its completions", ex.Final, ex.Err)
	}
	// No deadline passed: the supersession is no request timeout.
	if got := sv.met.timeouts.Value(); got != 0 {
		t.Errorf("timeouts = %d, want 0", got)
	}
}

// TestSessionPlainGETIsJSON400: probing the endpoint without an
// upgrade handshake gets a machine-readable v1 error, not a hang or a
// hijack panic.
func TestSessionPlainGETIsJSON400(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	resp, err := http.Get(sessionURL(ts))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if env.Error == nil || env.Error.Code != CodeBadRequest {
		t.Errorf("error = %+v, want code %q", env.Error, CodeBadRequest)
	}
}

// TestSessionCap: the MaxSessions limit refuses the overflow connect
// with 429 before any handshake, and a freed slot admits again.
func TestSessionCap(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	sv.SetLimits(Limits{MaxSessions: 1})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	c1, err := sessiontest.Dial(sessionURL(ts), 5*time.Second)
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	defer c1.Close()
	if _, err := sessiontest.Dial(sessionURL(ts), 5*time.Second); err == nil {
		t.Fatalf("second session admitted past MaxSessions=1")
	}
	if got := sv.met.sessionsRejected.Value(); got != 1 {
		t.Errorf("sessionsRejected = %d, want 1", got)
	}

	c1.Close()
	waitSessionsClosed(t, sv)
	c2, err := sessiontest.Dial(sessionURL(ts), 5*time.Second)
	if err != nil {
		t.Fatalf("dial after release: %v", err)
	}
	c2.Close()
}

// TestSessionReloadRebinds is the cross-generation regression at the
// server level: a reload mid-session must announce a rebind and drop
// the frontier, so the next keystroke recomputes under the new
// generation instead of serving pre-reload partials.
func TestSessionReloadRebinds(t *testing.T) {
	reg := registry.New(core.Exact())
	reg.Install("university", uni.New(), nil)
	sv := NewFromRegistry(reg)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	c, err := sessiontest.Dial(sessionURL(ts), 10*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	gen1 := c.Hello.Generation

	c.Type(t, "ta~n")
	reg.Install("university", uni.New(), nil) // hot reload: generation bump

	exs := c.Type(t, "ta~na")
	ex := exs[0]
	if len(ex.Rebinds) == 0 {
		t.Fatalf("no rebind frame after a reload retired generation %d", gen1)
	}
	if g := ex.Rebinds[0].Generation; g <= gen1 {
		t.Errorf("rebind generation = %d, want > %d", g, gen1)
	}
	st := ex.Final.Stats
	if st.Reused != 0 {
		t.Errorf("refinement reused %d cells across a generation boundary", st.Reused)
	}
	if st.Cold == 0 || st.Calls == 0 {
		t.Errorf("post-rebind keystroke reported no cold work: %+v", st)
	}
	if got := sv.met.sessionRebinds.Value(); got != 1 {
		t.Errorf("sessionRebinds = %d, want 1", got)
	}
}

// chaosSessionCount resolves the drill width: the
// PATHCOMPLETE_CHAOS_SESSIONS environment variable (the
// chaos-sessions make target sets 2000), defaulting to a width that
// keeps ordinary `go test ./...` fast.
func chaosSessionCount(t *testing.T) int {
	if v := os.Getenv("PATHCOMPLETE_CHAOS_SESSIONS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("PATHCOMPLETE_CHAOS_SESSIONS=%q is not a positive integer", v)
		}
		return n
	}
	return 48
}

// TestChaosSessions drives many concurrent keystroke sessions through
// the full stack while a reloader races generation bumps underneath
// them and the fault switchboard errors session.send / session.search
// calls. The contract is robustness bookkeeping, not answers: no
// panic escapes, every session slot and admission slot is returned,
// no snapshot reference leaks past the drain, and the goroutine count
// settles back down.
func TestChaosSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill skipped in -short")
	}
	baseline := runtime.NumGoroutine()

	reg := registry.New(core.Exact())
	reg.Install("university", uni.New(), nil)
	sv := NewFromRegistry(reg)
	n := chaosSessionCount(t)
	sv.SetLimits(Limits{MaxSessions: n + 8, SessionDebounce: -1})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	if err := faultinject.ArmSpec("error=0.05,seed=11,points=session.send|session.search"); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	defer faultinject.Disarm()

	tapes := [][]string{
		{"ta~n", "ta~na", "ta~nam"},
		{"student~", "student~n", "student~na"},
		{"department~c", "department~cr"},
		{"ta@>grad", "ta~name"},
		{"ta..name", "ta~name"}, // unparsable first keystroke: bad_expr, session survives
	}
	var (
		finals   atomic.Uint64
		killed   atomic.Uint64 // sessions that died on an injected send fault
		refused  atomic.Uint64 // dial-time failures (hello send fault)
		wg       sync.WaitGroup
		stopLoad = make(chan struct{})
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := sessionURL(ts)
			if i%17 == 0 {
				url += "?schema=university"
			}
			c, err := sessiontest.Dial(url, 30*time.Second)
			if err != nil {
				refused.Add(1)
				return
			}
			defer c.Close()
			for _, expr := range tapes[i%len(tapes)] {
				seq, err := c.Send(expr)
				if err != nil {
					killed.Add(1)
					return
				}
				exs, err := c.Collect(seq)
				if err != nil {
					killed.Add(1)
					return
				}
				if ex := exs[seq]; ex.Final != nil {
					finals.Add(1)
					sessiontest.AssertOrdered(t, ex)
				}
			}
		}(i)
	}
	// The reloader: generation bumps racing every live session, running
	// until the last client goroutine finishes.
	var reloads atomic.Uint64
	reloaderDone := make(chan struct{})
	go func() {
		defer close(reloaderDone)
		for {
			// Install before the first wait: the clients can all finish
			// inside one 5 ms tick, and the drill must still reload.
			reg.Install("university", uni.New(), nil)
			reloads.Add(1)
			select {
			case <-stopLoad:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	select {
	case <-clientsDone:
	case <-time.After(5 * time.Minute):
		t.Fatalf("chaos drill deadlocked: %d finals, %d killed, %d refused, %d sessions open",
			finals.Load(), killed.Load(), refused.Load(), sv.sessions.Load())
	}
	close(stopLoad)
	<-reloaderDone
	faultinject.Disarm()

	if finals.Load() == 0 {
		t.Errorf("no session produced a final frame (killed=%d refused=%d)", killed.Load(), refused.Load())
	}
	if reloads.Load() == 0 {
		t.Errorf("reloader never fired")
	}
	if snap := faultinject.Snapshot(); snap.Errors == 0 {
		t.Errorf("fault injection never fired: %+v", snap)
	}

	// Balanced books: every session slot, admission slot, and snapshot
	// reference returned.
	deadline := time.Now().Add(10 * time.Second)
	for sv.sessions.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if open := sv.sessions.Load(); open != 0 {
		t.Errorf("session slots leaked: %d still open", open)
	}
	if held := sv.gate.inFlight(); held != 0 {
		t.Errorf("admission slots leaked: %d still held", held)
	}
	if v := sv.met.inflight.Value(); v != 0 {
		t.Errorf("inflight gauge = %d after the drill", v)
	}
	for reg.Live() > 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if live := reg.Live(); live != 1 {
		t.Errorf("snapshot refs leaked: %d live, want 1 (the serving table)", live)
	}
	for runtime.NumGoroutine() > baseline+12 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+12 {
		t.Errorf("goroutines leaked: %d now, %d at baseline", g, baseline)
	}

	// The endpoint still serves cleanly after the drill.
	c, err := sessiontest.Dial(sessionURL(ts), 10*time.Second)
	if err != nil {
		t.Fatalf("post-chaos dial: %v", err)
	}
	c.Type(t, "ta~name")
	c.Close()
}

// TestSessionMetricsExposed: the session families show up on /metrics
// with their schema attribution.
func TestSessionMetricsExposed(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	c, err := sessiontest.Dial(sessionURL(ts), 10*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.Type(t, "ta~n")
	c.Close()
	waitSessionsClosed(t, sv)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	text := sb.String()
	for _, family := range []string{
		"pathcomplete_sessions_total 1",
		"pathcomplete_session_updates_total 1",
		"pathcomplete_session_finals_total 1",
		`pathcomplete_schema_sessions_total{schema="university"} 1`,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics exposition missing %q", family)
		}
	}
}
