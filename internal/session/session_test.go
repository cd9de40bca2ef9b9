package session_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/session"
	"pathcomplete/internal/session/sessiontest"
	"pathcomplete/internal/uni"
	"pathcomplete/internal/ws"
)

const testTimeout = 5 * time.Second

// startServer runs a session endpoint over httptest; every accepted
// connection becomes one session.Run with the (possibly mutated)
// config. Run errors land on runErrs for tests that assert fatality.
func startServer(t *testing.T, reg *registry.Registry, mut func(*session.Config)) (*httptest.Server, *sync.Map) {
	t.Helper()
	var ids atomic.Uint64
	runErrs := &sync.Map{}
	var wg sync.WaitGroup
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := ws.Upgrade(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := fmt.Sprintf("s-%d", ids.Add(1))
		cfg := session.Config{ID: id, Registry: reg, Debounce: -1}
		if mut != nil {
			mut(&cfg)
		}
		wg.Add(1)
		defer wg.Done()
		if err := session.Run(r.Context(), conn, cfg); err != nil {
			runErrs.Store(id, err)
		}
	}))
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	return srv, runErrs
}

func uniRegistry() *registry.Registry {
	return registry.Static(uni.New(), nil, core.Exact())
}

// variantSchema shares the university name and the ta root but wires
// name directly onto person, so ta~name answers differently than
// uni.New() — the observable for cross-generation staleness.
func variantSchema() *schema.Schema {
	b := schema.NewBuilder("university")
	b.Isa("ta", "person")
	b.Attr("person", "name", "C")
	return b.MustBuild()
}

// TestKeystrokeTape is the acceptance-criterion walkthrough: typing
// ta~n → ta~na → ta~nam → ta~name over one session, the first
// keystroke pays the cold search and every refinement reuses the
// frontier — zero cold cells, zero traverse calls — while the final
// answer matches the one-shot kernel at each step.
func TestKeystrokeTape(t *testing.T) {
	reg := uniRegistry()
	srv, _ := startServer(t, reg, nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if c.Hello.Schema != "university" || c.Hello.Generation == 0 {
		t.Fatalf("hello = %+v", c.Hello)
	}

	exs := c.Type(t, "ta~n", "ta~na", "ta~nam", "ta~name")
	cold := exs[0].Final.Stats
	if cold.Cold == 0 || cold.Calls == 0 {
		t.Fatalf("cold keystroke stats = %+v, want cold search work", cold)
	}
	for i := 1; i < len(exs); i++ {
		sessiontest.AssertRefines(t, exs[i-1], exs[i])
		sessiontest.AssertReused(t, exs[i])
		if got := exs[i].Final.Stats.Calls; got >= cold.Calls {
			t.Errorf("keystroke %d: calls = %d, not strictly below cold %d", i, got, cold.Calls)
		}
	}

	// Streamed-final ≡ one-shot, per keystroke.
	cmp := core.New(uni.New(), core.Exact())
	for i, expr := range []string{"ta~n", "ta~na", "ta~nam", "ta~name"} {
		want, err := cmp.CompletePrefixContext(context.Background(), pathexpr.MustParse(expr))
		if err != nil {
			t.Fatalf("CompletePrefixContext(%s): %v", expr, err)
		}
		var wantPaths []string
		for _, wc := range want.Completions {
			wantPaths = append(wantPaths, wc.Path.String())
		}
		var gotPaths []string
		for _, gc := range exs[i].Final.Completions {
			gotPaths = append(gotPaths, gc.Path)
		}
		if !reflect.DeepEqual(gotPaths, wantPaths) {
			t.Errorf("%s: streamed final = %v, one-shot = %v", expr, gotPaths, wantPaths)
		}
		if exs[i].Final.Engine != session.EngineFrontier {
			t.Errorf("%s: engine = %q", expr, exs[i].Final.Engine)
		}
	}
}

// TestCompleteExpression: an expression without a trailing gap runs
// the one-shot engine and yields a final with no batches.
func TestCompleteExpression(t *testing.T) {
	srv, _ := startServer(t, uniRegistry(), nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	exs := c.Type(t, "ta@>grad")
	if exs[0].Final.Engine != session.EngineSearch {
		t.Errorf("engine = %q, want search", exs[0].Final.Engine)
	}
	if len(exs[0].Batches) != 0 {
		t.Errorf("one-shot answer streamed %d batches", len(exs[0].Batches))
	}
}

// TestBadExpressionIsNotFatal: a parse failure answers its seq with a
// bad_expr error and the session keeps serving.
func TestBadExpressionIsNotFatal(t *testing.T) {
	srv, _ := startServer(t, uniRegistry(), nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for _, bad := range []string{"ta~", "", "nosuchroot~name", "ta~zzzzz"} {
		seq, err := c.Send(bad)
		if err != nil {
			t.Fatalf("send %q: %v", bad, err)
		}
		exs, err := c.Collect(seq)
		if err != nil {
			t.Fatalf("collect %q: %v", bad, err)
		}
		if exs[seq].Err == nil || exs[seq].Err.Code != session.CodeBadExpr {
			t.Fatalf("%q: exchange = %+v, want bad_expr error", bad, exs[seq])
		}
	}
	if exs := c.Type(t, "ta~name"); len(exs[0].Final.Completions) != 2 {
		t.Errorf("session did not survive bad expressions: %+v", exs[0].Final)
	}
}

// TestSeqRegressionIsFatal: a non-increasing seq draws a bad_seq
// error and the server closes the connection.
func TestSeqRegressionIsFatal(t *testing.T) {
	srv, _ := startServer(t, uniRegistry(), nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.Type(t, "ta~name")
	if err := c.SendFrame(session.ClientFrame{Type: session.TypeUpdate, Seq: 1, Expr: "ta~n"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	f, err := c.Next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if f.Type != session.TypeError || f.Code != session.CodeBadSeq {
		t.Fatalf("frame = %+v, want bad_seq error", f)
	}
	if _, err := c.Next(); err == nil {
		t.Fatalf("connection survived a seq regression")
	}
}

// TestMalformedFrameIsFatal: undecodable JSON and unknown frame types
// close the session with bad_frame.
func TestMalformedFrameIsFatal(t *testing.T) {
	for _, raw := range []string{"{not json", `{"type":"query","seq":1}`} {
		srv, _ := startServer(t, uniRegistry(), nil)
		c, err := sessiontest.Dial(srv.URL, testTimeout)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if err := c.SendRaw([]byte(raw)); err != nil {
			t.Fatalf("send raw: %v", err)
		}
		f, err := c.Next()
		if err != nil {
			t.Fatalf("%q: next: %v", raw, err)
		}
		if f.Type != session.TypeError || f.Code != session.CodeBadFrame {
			t.Fatalf("%q: frame = %+v, want bad_frame error", raw, f)
		}
		if _, err := c.Next(); err == nil {
			t.Fatalf("%q: connection survived a malformed frame", raw)
		}
		c.Close()
	}
}

// TestOversizedExpressionIsTerminalNotFatal: an expression past
// MaxExprLen errors its seq but keeps the session.
func TestOversizedExpressionIsTerminalNotFatal(t *testing.T) {
	srv, _ := startServer(t, uniRegistry(), func(cfg *session.Config) { cfg.MaxExprLen = 8 })
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	seq, err := c.Send("ta~namenamename")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	exs, err := c.Collect(seq)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if exs[seq].Err == nil || exs[seq].Err.Code != session.CodeBadExpr {
		t.Fatalf("exchange = %+v, want bad_expr", exs[seq])
	}
	if exs := c.Type(t, "ta~name"); exs[0].Final == nil {
		t.Errorf("session did not survive the oversized expression")
	}
}

// TestRebindDropsFrontier is the cross-generation regression test
// (the session analogue of the PR-4 singleflight shard test): a
// reload between keystrokes must rebind the session and recompute
// from the new generation — never serve cells cached under the old
// one. The replacement schema answers ta~name differently, so a stale
// frontier would be observable as the old answer set.
func TestRebindDropsFrontier(t *testing.T) {
	reg := uniRegistry()
	srv, _ := startServer(t, reg, nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	before := c.Type(t, "ta~n", "ta~na")
	sessiontest.AssertReused(t, before[1])
	gen0 := c.Hello.Generation

	reg.Install("university", variantSchema(), nil)

	after := c.Type(t, "ta~nam")
	if len(after[0].Rebinds) != 1 {
		t.Fatalf("rebinds = %d, want exactly 1", len(after[0].Rebinds))
	}
	if g := after[0].Rebinds[0].Generation; g <= gen0 {
		t.Errorf("rebind generation %d not past %d", g, gen0)
	}
	st := after[0].Final.Stats
	if st.Cold == 0 || st.Reused != 0 {
		t.Errorf("post-reload stats = %+v, want a fully cold recompute", st)
	}
	want, err := core.New(variantSchema(), reg.Options()).
		CompletePrefixContext(context.Background(), pathexpr.MustParse("ta~nam"))
	if err != nil {
		t.Fatalf("CompletePrefixContext: %v", err)
	}
	var wantPaths []string
	for _, wc := range want.Completions {
		wantPaths = append(wantPaths, wc.Path.String())
	}
	var gotPaths []string
	for _, gc := range after[0].Final.Completions {
		gotPaths = append(gotPaths, gc.Path)
	}
	if !reflect.DeepEqual(gotPaths, wantPaths) {
		t.Errorf("post-reload answer = %v, want new-generation %v", gotPaths, wantPaths)
	}
}

// TestBurstCoalesces: a rapid keystroke burst under a debounce window
// answers the newest update and skips (or coalesces away) stale ones
// — exactly one terminal per seq either way.
func TestBurstCoalesces(t *testing.T) {
	srv, _ := startServer(t, uniRegistry(), func(cfg *session.Config) { cfg.Debounce = 30 * time.Millisecond })
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	exs := c.Burst(t, "ta~n", "ta~na", "ta~nam", "ta~name")
	last := exs[len(exs)-1]
	if last.Final == nil {
		t.Fatalf("newest keystroke has no final: %+v", last)
	}
	skipped := 0
	for _, ex := range exs[:len(exs)-1] {
		if ex.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Errorf("no stale keystroke was skipped under a 30ms debounce")
	}
}

// TestAdmitShed: an admission refusal answers the update with an
// overloaded error and keeps the session.
func TestAdmitShed(t *testing.T) {
	shed := errors.New("queue full")
	var admits atomic.Int64
	srv, _ := startServer(t, uniRegistry(), func(cfg *session.Config) {
		cfg.Admit = func(ctx context.Context) (func(), error) {
			if admits.Add(1) == 1 {
				return nil, shed
			}
			return func() {}, nil
		}
	})
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	seq, err := c.Send("ta~name")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	exs, err := c.Collect(seq)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if exs[seq].Err == nil || exs[seq].Err.Code != session.CodeOverloaded {
		t.Fatalf("exchange = %+v, want overloaded", exs[seq])
	}
	if exs := c.Type(t, "ta~name"); exs[0].Final == nil {
		t.Errorf("session did not survive the shed")
	}
}

// TestCellSourceFastPath: a single-gap expression draws its cells
// from the injected source (the closure index in production) and
// reports them in the stats split.
func TestCellSourceFastPath(t *testing.T) {
	cmp := core.New(uni.New(), core.Exact())
	srv, _ := startServer(t, uniRegistry(), func(cfg *session.Config) {
		cfg.CellSource = func(sn *registry.Snapshot, root, anchor string) (*core.Result, bool) {
			res, err := cmp.CompleteContext(context.Background(), pathexpr.MustParse(root+"~"+anchor))
			if err != nil {
				return nil, false
			}
			return res, true
		}
	})
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	exs := c.Type(t, "ta~name")
	st := exs[0].Final.Stats
	if st.Source == 0 || st.Cold != 0 {
		t.Errorf("stats = %+v, want source-fed cells", st)
	}
}

// TestUnknownSchemaRefused: a session for an unregistered schema gets
// an unknown_schema error instead of a hello.
func TestUnknownSchemaRefused(t *testing.T) {
	srv, _ := startServer(t, uniRegistry(), func(cfg *session.Config) { cfg.Schema = "nosuch" })
	conn, err := ws.Dial(srv.URL)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close(ws.CloseNormal, "")
	_, data, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := session.CodeUnknownSchema; !strings.Contains(string(data), want) {
		t.Fatalf("frame %s lacks %q", data, want)
	}
}

// TestSearchFaultIsTerminalNotFatal: an injected session.search fault
// errors the update; the session answers the next one normally.
func TestSearchFaultIsTerminalNotFatal(t *testing.T) {
	faultinject.Arm(faultinject.Config{
		ErrorProb: 1,
		Points:    map[string]bool{"session.search": true},
	})
	srv, _ := startServer(t, uniRegistry(), nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		faultinject.Disarm()
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	seq, err := c.Send("ta~name")
	if err != nil {
		faultinject.Disarm()
		t.Fatalf("send: %v", err)
	}
	exs, err := c.Collect(seq)
	faultinject.Disarm()
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if exs[seq].Err == nil || exs[seq].Err.Code != session.CodeInternal {
		t.Fatalf("exchange = %+v, want internal error", exs[seq])
	}
	if exs := c.Type(t, "ta~name"); exs[0].Final == nil {
		t.Errorf("session did not survive the injected search fault")
	}
}

// TestSendFaultIsFatal: an injected session.send fault kills the
// session; Run reports the injected error.
func TestSendFaultIsFatal(t *testing.T) {
	srv, runErrs := startServer(t, uniRegistry(), nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.Type(t, "ta~name")
	faultinject.Arm(faultinject.Config{
		ErrorProb: 1,
		Points:    map[string]bool{"session.send": true},
	})
	defer faultinject.Disarm()
	if _, err := c.Send("ta~nam"); err != nil {
		t.Fatalf("send: %v", err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		if _, err := c.Next(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection survived a fatal send fault")
		}
	}
	var sawInjected bool
	for i := 0; i < 50; i++ {
		runErrs.Range(func(_, v any) bool {
			if errors.Is(v.(error), faultinject.ErrInjected) {
				sawInjected = true
			}
			return true
		})
		if sawInjected {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawInjected {
		t.Errorf("Run did not report the injected send fault")
	}
}

// TestSupersededUpdateHasOneTerminal: an update overwritten in the
// coalescing slot is answered skipped by the reader, so the work loop
// must never also take it — that would put a batch or a second
// terminal after the skipped. Back-to-back pairs with no debounce
// land in that window.
func TestSupersededUpdateHasOneTerminal(t *testing.T) {
	srv, _ := startServer(t, uniRegistry(), nil)
	c, err := sessiontest.Dial(srv.URL, testTimeout)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		c.Burst(t, "ta~n", "ta~na")
	}
}
