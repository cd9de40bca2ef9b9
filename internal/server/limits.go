package server

// Request-path limits. Every bound here exists to keep one pathological
// request — or a stampede of ordinary ones — from starving the process:
// admission is gated and queue-bounded (shed with 429 beyond that),
// bodies are size-capped before JSON decoding, inputs are range-checked
// before they select work, and every search runs under a wall-clock
// deadline that degrades to the best-so-far answer (core.StopReason)
// rather than an error.

import (
	"fmt"
	"time"
)

// Default limits. They are deliberately generous — the point is a
// ceiling on the adversarial case, not a tuning parameter for the
// ordinary one.
const (
	// DefaultMaxTimeout caps any per-request "timeoutMs" and bounds
	// requests that ask for no timeout at all.
	DefaultMaxTimeout = 30 * time.Second
	// DefaultMaxConcurrent bounds searches running at once.
	DefaultMaxConcurrent = 64
	// DefaultMaxQueue bounds requests waiting for an admission slot;
	// beyond it the server sheds with 429 + Retry-After.
	DefaultMaxQueue = 128
	// DefaultMaxBodyBytes caps POST bodies (http.MaxBytesReader).
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxExprLen caps the expression length in bytes.
	DefaultMaxExprLen = 4096
	// DefaultMaxE caps the AGG* parameter a request may ask for.
	DefaultMaxE = 64
	// DefaultMaxTraceEvents caps a request's traceLimit.
	DefaultMaxTraceEvents = 100_000
	// DefaultMaxBatch caps the number of queries in one /v1/completeBatch
	// request.
	DefaultMaxBatch = 64
	// DefaultMaxSessions caps concurrently open interactive WebSocket
	// sessions (/v1/sessions); beyond it new sessions are refused with
	// 429 before the upgrade.
	DefaultMaxSessions = 256
	// DefaultSessionDebounce is the keystroke settle window of an
	// interactive session: updates arriving within it coalesce into
	// one search.
	DefaultSessionDebounce = 15 * time.Millisecond
)

// Limits configures the hardened request path. The zero value of any
// field selects its default (see the Default* constants); DefaultTimeout
// alone has no default — zero means "no implicit per-request timeout
// beyond MaxTimeout".
type Limits struct {
	// DefaultTimeout is applied to requests that carry no "timeoutMs"
	// (0: no default; MaxTimeout still bounds the request).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request "timeoutMs" and bounds requests
	// without one.
	MaxTimeout time.Duration
	// MaxConcurrent is the admission gate width.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue.
	MaxQueue int
	// MaxBodyBytes caps POST bodies.
	MaxBodyBytes int64
	// MaxExprLen caps expression length in bytes.
	MaxExprLen int
	// MaxE caps the request "e" parameter.
	MaxE int
	// MaxTraceEvents caps the request "traceLimit".
	MaxTraceEvents int
	// MaxBatch caps the number of queries in one /v1/completeBatch body.
	MaxBatch int
	// MaxSessions caps concurrently open interactive sessions.
	MaxSessions int
	// SessionDebounce is the per-session keystroke settle window
	// (0: DefaultSessionDebounce; negative: no debounce).
	SessionDebounce time.Duration
}

// DefaultLimits returns the production defaults.
func DefaultLimits() Limits { return Limits{}.withDefaults() }

// withDefaults resolves zero fields to their defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxTimeout <= 0 {
		l.MaxTimeout = DefaultMaxTimeout
	}
	if l.MaxConcurrent <= 0 {
		l.MaxConcurrent = DefaultMaxConcurrent
	}
	if l.MaxQueue < 0 {
		l.MaxQueue = 0
	} else if l.MaxQueue == 0 {
		l.MaxQueue = DefaultMaxQueue
	}
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if l.MaxExprLen <= 0 {
		l.MaxExprLen = DefaultMaxExprLen
	}
	if l.MaxE <= 0 {
		l.MaxE = DefaultMaxE
	}
	if l.MaxTraceEvents <= 0 {
		l.MaxTraceEvents = DefaultMaxTraceEvents
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = DefaultMaxBatch
	}
	if l.MaxSessions <= 0 {
		l.MaxSessions = DefaultMaxSessions
	}
	if l.SessionDebounce == 0 {
		l.SessionDebounce = DefaultSessionDebounce
	}
	return l
}

// SetLimits installs the limits (zero fields resolve to defaults) and
// rebuilds the admission gate. Call it before serving traffic.
func (sv *Server) SetLimits(l Limits) {
	sv.lim = l.withDefaults()
	sv.gate = newGate(sv.lim.MaxConcurrent, sv.lim.MaxQueue)
}

// Limits returns the server's resolved limits.
func (sv *Server) Limits() Limits { return sv.lim }

// validateComplete range-checks a request before it selects any work.
// A non-nil error maps to 400.
func (sv *Server) validateComplete(req *CompleteRequest) error {
	if req.Expr == "" {
		return fmt.Errorf("missing expr")
	}
	if len(req.Expr) > sv.lim.MaxExprLen {
		return fmt.Errorf("expr too long: %d bytes exceeds the %d-byte limit", len(req.Expr), sv.lim.MaxExprLen)
	}
	if req.E < 0 || req.E > sv.lim.MaxE {
		return fmt.Errorf("e out of range: %d not in [0, %d]", req.E, sv.lim.MaxE)
	}
	if req.TraceLimit < 0 || req.TraceLimit > sv.lim.MaxTraceEvents {
		return fmt.Errorf("traceLimit out of range: %d not in [0, %d]", req.TraceLimit, sv.lim.MaxTraceEvents)
	}
	if req.TimeoutMs < 0 {
		return fmt.Errorf("timeoutMs must be non-negative, got %d", req.TimeoutMs)
	}
	return nil
}

// effectiveTimeout resolves the per-request wall-clock budget: the
// request's timeoutMs if given, else the server default, both capped by
// MaxTimeout (which also bounds requests asking for no timeout).
func (sv *Server) effectiveTimeout(timeoutMs int) time.Duration {
	d := sv.lim.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if max := sv.lim.MaxTimeout; max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}
