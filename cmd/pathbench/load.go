package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"pathcomplete/internal/schema"
	"pathcomplete/internal/session"
	"pathcomplete/internal/ws"
)

// window is the measured interval of a run. A traced run alternates
// untraced and traced slices inside it, so trace.overhead_ratio
// compares the two under the same conditions.
type window struct {
	start, end time.Time
	trace      bool
}

// traceSlices is the number of alternating slices of a traced window.
const traceSlices = 10

func (w window) in(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

func (w window) traced(t time.Time) bool {
	slice := w.end.Sub(w.start) / traceSlices
	return w.trace && slice > 0 && int(t.Sub(w.start)/slice)%2 == 1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replayCap bounds the traced operations each load goroutine keeps for
// replay (reservoir sampling over its traced slices).
const replayCap = 1024

// opLog is what one load goroutine recorded. Only that goroutine
// writes it; the runner reads it after the goroutine has returned.
type opLog struct {
	lat       []float64 // ms, window operations in untraced slices
	tracedLat []float64 // ms, window operations in traced slices
	late      []float64 // ms, how late each window operation was sent
	lastEnd   time.Time // when the last window operation finished
	ops       int       // operations attempted, every phase
	failed    int

	checks []check    // responses for the correctness gate
	traced []tracedOp // replay sample of traced operations
	seen   int        // traced operations offered to the sample
	rng    *rand.Rand // reservoir sampling
	notes  []string   // the first failures, for stderr
}

func (l *opLog) fail(format string, args ...any) {
	l.failed++
	if len(l.notes) < 3 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}

// observe records the latency of one successful window operation that
// was due at due, sent at sent and finished at end. Latency runs from
// the send: the generator's own lateness is loadgen.late_p99_ms.
func (l *opLog) observe(win window, due, sent, end time.Time) {
	if end.After(l.lastEnd) {
		l.lastEnd = end
	}
	if win.traced(due) {
		l.tracedLat = append(l.tracedLat, ms(end.Sub(sent)))
	} else {
		l.lat = append(l.lat, ms(end.Sub(sent)))
	}
}

// sample offers a traced operation to the replay reservoir.
func (l *opLog) sample(op tracedOp) {
	l.seen++
	if len(l.traced) < replayCap {
		l.traced = append(l.traced, op)
	} else if j := l.rng.Intn(l.seen); j < replayCap {
		l.traced[j] = op
	}
}

// check is one wire answer the correctness gate compares.
type check struct {
	q    request
	body []byte
}

// tracedOp is one logged REST operation: the request span and the
// response, whose meta tells the replay which layers answered it.
type tracedOp struct {
	q          request
	start, end time.Time
	body       []byte
}

// post sends one JSON POST and reads the whole body into buf.
func post(hc *http.Client, buf *bytes.Buffer, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// closedLoop sends client id's requests back to back until the window
// ends. A request is due when the previous one finished.
func (r *runner) closedLoop(id int, l *opLog) {
	ring := r.in.rings[id]
	var buf bytes.Buffer
	due := time.Now()
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(r.win.end) {
			return
		}
		q := ring[i%len(ring)]
		status, body, err := post(r.hc, &buf, r.inst.url+"/v1/complete", q.body)
		end := time.Now()
		l.ops++
		switch {
		case err != nil:
			l.fail("%s: %v", q.expr, err)
		case status != http.StatusOK:
			l.fail("%s: HTTP %d: %.200s", q.expr, status, body)
		case r.win.in(start):
			l.observe(r.win, start, start, end)
			l.late = append(l.late, ms(start.Sub(due)))
			if i%sampleEvery == r.in.offset {
				l.checks = append(l.checks, check{q, append([]byte(nil), body...)})
			}
			if r.win.traced(start) {
				l.sample(tracedOp{q, start, end, append([]byte(nil), body...)})
			}
		}
		due = end
	}
}

// reloadLog is what the reload goroutine recorded.
type reloadLog struct {
	ops, failed int
	reloadMs    []float64 // window reloads: POST round trip
	// Indexed by whether the reload dropped the line (1: the closure
	// reuses cells) or restored it (0: an edge add, a full rebuild).
	readyMs   [2][]float64 // POST answered → new generation's closure ready
	rebuildMs [2][]float64 // the new index's build time
	reused    int          // cells carried over by edge-granular reuse
	cells     int
	dropped   bool // the served schema lacks the toggled line
	notes     []string
}

// reloadLoop toggles the seed-chosen assoc line once a second from the
// window's start and reloads, waiting for each new generation's closure
// to be ready before the next toggle. Starting with the window gives
// every run the same sequence of reuses and full rebuilds.
func (r *runner) reloadLoop(ctx context.Context, rl *reloadLog) {
	var buf bytes.Buffer
	dropped := false
	next := r.win.start
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(next)):
		}
		dropped = !dropped
		text, s := r.in.sdl, r.in.s
		if dropped {
			text, s = r.in.dropped, r.in.droppedS
		}
		start := time.Now()
		gen, answered, err := r.reload(ctx, &buf, rl, text, s)
		if err != nil {
			return
		}
		ready := time.Now()
		if r.win.in(start) {
			kind := 0
			if dropped {
				kind = 1
			}
			rl.reloadMs = append(rl.reloadMs, ms(answered.Sub(start)))
			rl.readyMs[kind] = append(rl.readyMs[kind], ms(ready.Sub(answered)))
			if ix, g := r.inst.index(); ix != nil && g == gen {
				rl.rebuildMs[kind] = append(rl.rebuildMs[kind], ms(ix.BuildDuration()))
				rl.reused += ix.ReusedCells()
				rl.cells += ix.Cells()
			}
		}
		if next = next.Add(time.Second); next.Before(ready) {
			next = ready
		}
	}
}

// reload serves text (parsed: s) from the schemas directory, asks the
// server to reload, and waits until the new generation's closure is
// ready or ctx ends. It returns the generation and when the reload POST
// was answered; gens learns which schema the generation serves. A
// failure is counted in rl.
func (r *runner) reload(ctx context.Context, buf *bytes.Buffer, rl *reloadLog, text string, s *schema.Schema) (gen uint64, answered time.Time, err error) {
	rl.ops++
	defer func() {
		if err != nil && ctx.Err() == nil {
			rl.failed++
			rl.notes = append(rl.notes, "reload: "+err.Error())
		}
	}()
	// The server reads the directory only when asked to reload, so a
	// plain write cannot be seen half done.
	if err := os.WriteFile(filepath.Join(r.schemasDir, r.in.spec.name+".sdl"), []byte(text), 0o644); err != nil {
		return 0, time.Time{}, err
	}
	status, body, err := post(r.hc, buf, r.inst.url+"/v1/schemas/reload", nil)
	answered = time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	var env struct {
		Data struct {
			Generation uint64 `json:"generation"`
		} `json:"data"`
	}
	if err == nil {
		err = json.Unmarshal(body, &env)
	}
	if err != nil {
		return 0, answered, err
	}
	gen = env.Data.Generation
	r.gens[gen] = s
	rl.dropped = s == r.in.droppedS
	for {
		if ready, err := r.inst.closureReady(gen); ready || err != nil {
			return gen, answered, err
		}
		select {
		case <-ctx.Done():
			return gen, answered, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// keystrokePeriod is one session's typing interval: two sessions offer
// 100 keystrokes per second.
const keystrokePeriod = 20 * time.Millisecond

// keyOffset staggers the sessions' keystrokes evenly within a period.
func keyOffset(id int) time.Duration { return keystrokePeriod * time.Duration(id) / clients }

// keysBefore is the number of keystrokes session id sends in the first
// d of the load.
func keysBefore(id int, d time.Duration) int {
	if d <= keyOffset(id) {
		return 0
	}
	return int((d - keyOffset(id) + keystrokePeriod - 1) / keystrokePeriod)
}

// sessionLog is what one session recorded.
type sessionLog struct {
	opLog
	finals  []finalRec // every final, in order (the replay needs them all)
	updates int        // window keystrokes
	skipped int        // window keystrokes answered skipped
	gen     uint64     // the generation the session is pinned to
}

// finalRec is one final frame and when its keystroke was sent.
type finalRec struct {
	sent, end time.Time
	frame     session.ServerFrame
	window    bool
	traced    bool
}

// session types script id on one WebSocket session from t0 until the
// window ends, one keystroke every keystrokePeriod (open loop: a slow
// answer does not delay the next keystroke). A keystroke's latency runs
// from its send to the first final frame answering it or a later
// keystroke. The sender never waits for the server, so the time between
// a keystroke's due time and its send is the generator's own lateness
// (on a 2-vCPU virtual machine, timer wake-ups ran half a millisecond
// late), reported as loadgen.late_p99_ms rather than charged to the
// server.
func (r *runner) session(id int, t0 time.Time, l *sessionLog) {
	conn, err := ws.Dial(strings.Replace(r.inst.url, "http://", "ws://", 1) + "/v1/sessions")
	if err != nil {
		l.fail("dial: %v", err)
		return
	}
	defer conn.Close(ws.CloseNormal, "")
	var hello session.ServerFrame
	if _, data, err := conn.ReadMessage(); err != nil || json.Unmarshal(data, &hello) != nil || hello.Type != session.TypeHello {
		l.fail("no hello frame (%v)", err)
		return
	}
	l.gen = hello.Generation
	due := func(seq uint64) time.Time { return t0.Add(keyOffset(id) + time.Duration(seq-1)*keystrokePeriod) }
	script := r.in.scripts[id] // one keystroke per due time before the window ends
	total := uint64(len(script))
	sent := make([]atomic.Int64, total+1) // Unix nanoseconds, written by the sender
	sentAt := func(seq uint64) time.Time { return time.Unix(0, sent[seq].Load()) }

	late := make(chan []float64, 1)
	go func() {
		var lateMs []float64
		defer func() { late <- lateMs }()
		for seq := uint64(1); seq <= total; seq++ {
			d := due(seq)
			time.Sleep(time.Until(d))
			data, err := json.Marshal(session.ClientFrame{Type: session.TypeUpdate, Seq: seq, Expr: script[seq-1]})
			now := time.Now()
			sent[seq].Store(now.UnixNano())
			if err == nil {
				err = conn.WriteMessage(ws.OpText, data)
			}
			if err != nil {
				return // the reader times out and counts the rest as failed
			}
			if r.win.in(d) {
				lateMs = append(lateMs, ms(now.Sub(d)))
			}
		}
	}()

	next := uint64(1) // the lowest keystroke not yet answered
	failed := map[uint64]bool{}
	for done := false; !done; {
		if err := conn.SetReadDeadline(time.Now().Add(readyTimeout)); err != nil {
			break
		}
		_, data, err := conn.ReadMessage()
		if err != nil {
			break
		}
		end := time.Now()
		var f session.ServerFrame
		if err := json.Unmarshal(data, &f); err != nil {
			l.fail("undecodable frame: %v", err)
			break
		}
		switch f.Type {
		case session.TypeFinal:
			for ; next <= f.Seq; next++ {
				if d := due(next); !failed[next] && r.win.in(d) {
					l.observe(r.win, d, sentAt(next), end)
				}
			}
			d := due(f.Seq)
			l.finals = append(l.finals, finalRec{sentAt(f.Seq), end, f, r.win.in(d), r.win.traced(d)})
			done = f.Seq == total
		case session.TypeSkipped:
			if r.win.in(due(f.Seq)) {
				l.skipped++
			}
		case session.TypeError:
			failed[f.Seq] = true
			l.fail("seq %d %s: %s", f.Seq, f.Code, f.Message)
			done = f.Seq == total
		}
	}
	l.late = append(l.late, <-late...)
	for seq := uint64(1); seq <= total; seq++ {
		if r.win.in(due(seq)) {
			l.updates++
		}
		if seq >= next && !failed[seq] {
			l.fail("seq %d never answered", seq)
		}
	}
	l.ops += int(total)
}
