package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/ws"
)

// DefaultDebounce is the settle window applied to bursty keystrokes
// when the config leaves Debounce zero: updates arriving within it
// coalesce into one search. Negative Debounce disables settling.
const DefaultDebounce = 15 * time.Millisecond

// Event is one observable session happening, delivered to
// Config.OnEvent for metric folding. Kind is one of "update",
// "batch", "final", "skipped", "rebind", "error".
type Event struct {
	Kind   string
	Seq    uint64
	Engine string
	Code   string
}

// Config wires one session run.
type Config struct {
	// ID names the session in hello frames, spans, and logs.
	ID string
	// Registry supplies and re-supplies the pinned snapshot.
	Registry *registry.Registry
	// Schema is the requested schema name; empty selects the default.
	Schema string
	// Debounce is the keystroke settle window (0: DefaultDebounce,
	// negative: none).
	Debounce time.Duration
	// MaxExprLen bounds the expression text per update (0: unlimited).
	MaxExprLen int
	// Admit gates each search through the server's admission control;
	// nil admits everything. The returned release must be called when
	// the search ends. An error answers the update overloaded, or
	// skipped when a newer update superseded it while it waited.
	Admit func(ctx context.Context) (release func(), err error)
	// CellSource supplies precomputed frontier cells (the closure
	// index) for single-gap expressions on the given snapshot; nil
	// disables the fast path.
	CellSource func(sn *registry.Snapshot, root, anchor string) (*core.Result, bool)
	// Trace, when non-nil, records one synthetic span per update.
	Trace *obs.TracePipeline
	// OnEvent, when non-nil, observes session events (metrics).
	OnEvent func(Event)
	// Logger, when non-nil, receives session lifecycle lines.
	Logger *slog.Logger
}

func (c Config) debounce() time.Duration {
	switch {
	case c.Debounce < 0:
		return 0
	case c.Debounce == 0:
		return DefaultDebounce
	default:
		return c.Debounce
	}
}

// session is the per-connection state machine.
type session struct {
	cfg  Config
	conn *ws.Conn
	sn   *registry.Snapshot

	// mu guards the coalescing slot and the in-flight search cancel.
	mu           sync.Mutex
	pending      *ClientFrame
	searchCancel context.CancelFunc

	wake chan struct{}

	// frontier state, owned by the work loop. frontierBase identifies
	// the base expression (root + steps before the final gap) AND the
	// pinned generation the cells were computed under — a rebind or a
	// base change drops it.
	frontier     *core.Frontier
	frontierBase string

	fatal error // first fatal error, for Run's return
}

// Run drives one session over an accepted WebSocket connection until
// the client closes, a fatal protocol violation occurs, or ctx is
// canceled. It owns conn and the snapshot it pins: both are released
// before Run returns, and no goroutine outlives it.
func Run(ctx context.Context, conn *ws.Conn, cfg Config) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sn, err := cfg.Registry.Acquire(cfg.Schema)
	if err != nil {
		frame := ServerFrame{Type: TypeError, Code: CodeUnknownSchema, Message: err.Error()}
		s := &session{cfg: cfg, conn: conn}
		s.send(frame)
		conn.Close(ws.CloseNormal, CodeUnknownSchema)
		return err
	}
	s := &session{
		cfg:  cfg,
		conn: conn,
		sn:   sn,
		wake: make(chan struct{}, 1),
	}
	// The receiver must be re-read at exit: a rebind swaps s.sn and
	// releases the old snapshot itself.
	defer func() { s.sn.Release() }()
	conn.SetMaxMessage(MaxClientFrame)

	if err := s.send(ServerFrame{
		Type:       TypeHello,
		Session:    cfg.ID,
		Schema:     sn.Name(),
		Generation: sn.Generation(),
	}); err != nil {
		conn.Close(ws.CloseInternal, "hello failed")
		return err
	}
	if cfg.Logger != nil {
		cfg.Logger.Info("session open", "session", cfg.ID, "schema", sn.Name(), "generation", sn.Generation())
	}

	readDone := make(chan error, 1)
	go func() {
		readDone <- s.readLoop()
		cancel() // unblock the work loop and abort any in-flight search
	}()

	s.workLoop(ctx)
	cancel()
	conn.Close(ws.CloseNormal, "")
	readErr := <-readDone

	if cfg.Logger != nil {
		cfg.Logger.Info("session close", "session", cfg.ID, "err", errors.Join(s.fatal, ignoreClose(readErr)))
	}
	if s.fatal != nil {
		return s.fatal
	}
	return ignoreClose(readErr)
}

// ignoreClose maps a clean client close to nil.
func ignoreClose(err error) error {
	var ce *ws.CloseError
	if errors.As(err, &ce) && (ce.Code == ws.CloseNormal || ce.Code == ws.CloseGoingAway) {
		return nil
	}
	return err
}

// readLoop consumes client frames until the connection dies or a
// fatal protocol violation occurs. Accepted updates land in the
// latest-wins coalescing slot; an overwritten update is answered with
// its skipped terminal immediately, and any in-flight search is
// canceled so the work loop converges on the newest keystroke.
func (s *session) readLoop() error {
	lastSeq := uint64(0)
	for {
		op, data, err := s.conn.ReadMessage()
		if err != nil {
			return err
		}
		if op != ws.OpText {
			s.sendError(0, &protoError{code: CodeBadFrame, msg: "binary frames are not part of the protocol", fatal: true})
			s.conn.Close(ws.CloseProtocolError, CodeBadFrame)
			return fmt.Errorf("session: binary frame")
		}
		f, perr := decodeClient(data, lastSeq, s.cfg.MaxExprLen)
		if perr != nil {
			s.sendError(f.Seq, perr)
			if perr.fatal {
				s.conn.Close(ws.CloseProtocolError, perr.code)
				return fmt.Errorf("session: %s", perr.code)
			}
			lastSeq = f.Seq // the seq was valid; its error frame is terminal
			continue
		}
		lastSeq = f.Seq
		s.event(Event{Kind: "update", Seq: f.Seq})
		s.mu.Lock()
		if s.pending != nil {
			// Empty the slot before unlocking: an update the work loop
			// could still take while its skipped is on the wire would
			// get a second terminal.
			skipped := s.pending.Seq
			s.pending = nil
			s.mu.Unlock()
			s.sendSkipped(skipped)
			s.mu.Lock()
		}
		fc := f
		s.pending = &fc
		if s.searchCancel != nil {
			s.searchCancel()
		}
		s.mu.Unlock()
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// workLoop processes coalesced updates until ctx is canceled.
func (s *session) workLoop(ctx context.Context) {
	debounce := s.cfg.debounce()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		}
		if debounce > 0 {
			t := time.NewTimer(debounce)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		s.mu.Lock()
		f := s.pending
		s.pending = nil
		var sctx context.Context
		if f != nil {
			sctx, s.searchCancel = context.WithCancel(ctx)
		}
		s.mu.Unlock()
		if f == nil {
			continue // superseded during debounce and already skipped
		}
		s.handleUpdate(ctx, sctx, *f)
		s.mu.Lock()
		if s.searchCancel != nil {
			s.searchCancel()
			s.searchCancel = nil
		}
		s.mu.Unlock()
	}
}

// rebindIfStale re-checks the registry before a search: if a reload
// (or schema removal) retired the pinned generation, the session
// adopts the current snapshot, drops the frontier — per-session
// cached state is keyed by the pinned generation and must never cross
// it — and announces the new binding.
func (s *session) rebindIfStale() error {
	cur, err := s.cfg.Registry.Acquire(s.sn.Name())
	if err != nil {
		// The pinned schema vanished; fall back to the default.
		cur, err = s.cfg.Registry.Acquire("")
		if err != nil {
			return err
		}
	}
	if cur.Name() == s.sn.Name() && cur.Generation() == s.sn.Generation() {
		cur.Release()
		return nil
	}
	s.sn.Release()
	s.sn = cur
	s.frontier = nil
	s.frontierBase = ""
	s.event(Event{Kind: "rebind"})
	s.send(ServerFrame{
		Type:       TypeRebind,
		Schema:     cur.Name(),
		Generation: cur.Generation(),
	})
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("session rebind", "session", s.cfg.ID, "schema", cur.Name(), "generation", cur.Generation())
	}
	return nil
}

// handleUpdate answers one coalesced update with batches and exactly
// one terminal frame. sctx is the per-search context the reader
// cancels when a newer keystroke supersedes this one; ctx is the
// session context.
func (s *session) handleUpdate(ctx, sctx context.Context, f ClientFrame) {
	start := time.Now()
	var engine, errMsg string
	defer func() {
		if s.cfg.Trace != nil {
			s.cfg.Trace.RecordSynthetic("session.update", start, time.Since(start), map[string]any{
				obs.AttrSchema: s.sn.Name(),
				obs.AttrExpr:   f.Expr,
				obs.AttrEngine: engine,
				"session.id":   s.cfg.ID,
				"session.seq":  f.Seq,
			}, errMsg)
		}
	}()

	if err := s.rebindIfStale(); err != nil {
		errMsg = err.Error()
		s.sendError(f.Seq, &protoError{code: CodeUnknownSchema, msg: err.Error()})
		return
	}
	e, err := pathexpr.Parse(f.Expr)
	if err != nil {
		errMsg = err.Error()
		s.sendError(f.Seq, &protoError{code: CodeBadExpr, msg: err.Error()})
		return
	}
	if err := faultinject.Inject("session.search"); err != nil {
		errMsg = err.Error()
		s.sendError(f.Seq, &protoError{code: CodeInternal, msg: err.Error()})
		return
	}
	if s.cfg.Admit != nil {
		release, err := s.cfg.Admit(sctx)
		if err != nil {
			if sctx.Err() != nil {
				// Superseded while it waited for a slot (or the session
				// is closing): the newer keystroke owns the answer.
				s.sendSkipped(f.Seq)
				return
			}
			errMsg = err.Error()
			s.sendError(f.Seq, &protoError{code: CodeOverloaded, msg: err.Error()})
			return
		}
		defer release()
	}

	gapFinal := len(e.Steps) > 0 && e.Steps[len(e.Steps)-1].Gap
	var (
		res  *core.Result
		info core.AdvanceInfo
	)
	if gapFinal {
		engine = EngineFrontier
		res, info, err = s.advance(sctx, f, e)
	} else {
		engine = EngineSearch
		res, err = s.sn.Completer().CompleteContext(sctx, e)
	}
	if err != nil {
		errMsg = err.Error()
		s.sendError(f.Seq, &protoError{code: CodeBadExpr, msg: err.Error()})
		return
	}
	if res.Aborted && res.StopReason == core.StopCanceled && sctx.Err() != nil {
		// Superseded mid-search (or the session is closing): the newer
		// keystroke owns the answer.
		s.sendSkipped(f.Seq)
		return
	}
	frame := ServerFrame{
		Type:        TypeFinal,
		Seq:         f.Seq,
		Expr:        e.String(),
		Completions: candidates(res.Completions),
		Engine:      engine,
		Aborted:     res.Aborted,
		StopReason:  string(res.StopReason),
		Stats: &Stats{
			Calls:   res.Stats.Calls,
			Anchors: info.Anchors,
			Reused:  info.Reused,
			Cold:    info.Cold,
			Source:  info.Source,
		},
	}
	for _, k := range res.Best {
		frame.Best = append(frame.Best, BestKey{Conn: k.Conn.String(), SemLen: k.SemLen})
	}
	if s.send(frame) == nil {
		s.event(Event{Kind: "final", Seq: f.Seq, Engine: engine})
	}
}

// advance runs the incremental path: reuse or rebuild the frontier
// for the update's base expression, then advance it under the typed
// prefix, streaming one batch frame per anchor cell.
func (s *session) advance(sctx context.Context, f ClientFrame, e pathexpr.Expr) (*core.Result, core.AdvanceInfo, error) {
	base := baseKey(s.sn.Generation(), e)
	if s.frontier == nil || s.frontierBase != base {
		fr, err := s.sn.Completer().NewFrontier(e)
		if err != nil {
			return nil, core.AdvanceInfo{}, err
		}
		if s.cfg.CellSource != nil && len(e.Steps) == 1 {
			sn, root := s.sn, e.Root
			fr.SetCellSource(func(anchor string) (*core.Result, bool) {
				return s.cfg.CellSource(sn, root, anchor)
			})
		}
		s.frontier = fr
		s.frontierBase = base
	}
	prefix := e.Steps[len(e.Steps)-1].Name
	return s.frontier.Advance(sctx, prefix, func(anchor string, cell *core.Result, reused bool) {
		if s.send(ServerFrame{
			Type:       TypeBatch,
			Seq:        f.Seq,
			Anchor:     anchor,
			Reused:     reused,
			Candidates: candidates(cell.Completions),
		}) == nil {
			s.event(Event{Kind: "batch", Seq: f.Seq})
		}
	})
}

// baseKey names the frontier's identity: the pinned generation plus
// the expression with its final gap name blanked. Including the
// generation is the cross-generation-partials fix — even if an old
// frontier object survived a rebind bug, its key could never match.
func baseKey(gen uint64, e pathexpr.Expr) string {
	masked := e
	masked.Steps = append([]pathexpr.Step(nil), e.Steps...)
	masked.Steps[len(masked.Steps)-1].Name = ""
	return fmt.Sprintf("g%d:%s", gen, masked.String())
}

func candidates(cs []core.Completion) []Candidate {
	out := make([]Candidate, 0, len(cs))
	for _, c := range cs {
		out = append(out, Candidate{
			Path:   c.Path.String(),
			Conn:   c.Label.Conn().String(),
			SemLen: c.Label.SemLen(),
		})
	}
	return out
}

// send writes one frame; a failed write (including an injected
// session.send fault) is fatal to the session.
func (s *session) send(f ServerFrame) error {
	if err := faultinject.Inject("session.send"); err != nil {
		s.fail(err)
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		s.fail(err)
		return err
	}
	if err := s.conn.WriteMessage(ws.OpText, data); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

func (s *session) fail(err error) {
	s.mu.Lock()
	if s.fatal == nil {
		s.fatal = err
	}
	if s.searchCancel != nil {
		s.searchCancel()
	}
	s.mu.Unlock()
	s.conn.Close(ws.CloseInternal, "send failed")
}

func (s *session) sendError(seq uint64, perr *protoError) {
	s.event(Event{Kind: "error", Seq: seq, Code: perr.code})
	s.send(ServerFrame{Type: TypeError, Seq: seq, Code: perr.code, Message: perr.msg})
}

func (s *session) sendSkipped(seq uint64) {
	if s.send(ServerFrame{Type: TypeSkipped, Seq: seq}) == nil {
		s.event(Event{Kind: "skipped", Seq: seq})
	}
}

func (s *session) event(ev Event) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}
