package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTPMetrics bundles the standard server-side HTTP metrics:
//
//	http_requests_total{path,method,code}   per-endpoint request counter
//	http_request_duration_seconds{path}     per-endpoint latency histogram
//	http_in_flight_requests                 requests currently being served
//
// Construct one per Registry with NewHTTPMetrics and wrap the root
// handler with Wrap. With SetTracing, Wrap additionally opens one root
// span per selected request (W3C traceparent ingest/emit) and
// annotates the latency histogram with trace-ID exemplars.
type HTTPMetrics struct {
	requests *CounterVec
	duration *HistogramVec
	inFlight *Gauge
	routeLG  *LabelGuard
	tracing  *TracePipeline
}

// NewHTTPMetrics registers the HTTP metric families on r.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec("http_requests_total",
			"HTTP requests served, by route, method, and status code.",
			"path", "method", "code"),
		duration: r.HistogramVec("http_request_duration_seconds",
			"HTTP request latency in seconds, by route.",
			DefBuckets(), "path"),
		inFlight: r.Gauge("http_in_flight_requests",
			"HTTP requests currently being served."),
		routeLG: NewLabelGuard(DefaultLabelCap),
	}
}

// SetTracing attaches the span pipeline Wrap threads through every
// request. Call before serving traffic; nil detaches.
func (m *HTTPMetrics) SetTracing(tp *TracePipeline) { m.tracing = tp }

// RequestIDHeader is the header carrying the request ID. An inbound
// value is trusted (so IDs propagate across hops); otherwise a fresh
// random ID is generated. The response always echoes the header.
const RequestIDHeader = "X-Request-Id"

// statusWriter captures the status code and body size written by the
// wrapped handler.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Hijack lets protocol-upgrade handlers (WebSocket sessions) take the
// connection through the instrumented writer. The request is recorded
// as a 101; bytes written on the hijacked connection are not counted.
func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("obs: underlying ResponseWriter does not support hijacking")
	}
	conn, rw, err := hj.Hijack()
	if err == nil && w.status == 0 {
		w.status = http.StatusSwitchingProtocols
	}
	return conn, rw, err
}

// Wrap instruments next with the HTTP metrics and, when logger is
// non-nil, structured request logging with request IDs.
//
// routes lists the known route patterns; a request is attributed to
// the most specific pattern that matches it (see NormalizeRoute), and
// to "other" when none does. Normalizing the path label through a
// fixed allowlist — with {name}-style wildcard segments collapsing to
// their template, belt-and-suspendered by a LabelGuard — keeps metric
// cardinality bounded no matter what paths a hostile client probes.
//
// When a span pipeline is attached (SetTracing), Wrap parses the
// inbound W3C traceparent, opens the request's root span named
// "METHOD route-template" (the inbound sampled flag is honored
// subject to the pipeline's TraceConfig.InboundLimit — it is
// client-controlled), echoes the resulting traceparent on every
// response, stamps the
// terminal status on the span, and — when the trace is retained —
// records a trace-ID exemplar on the route's latency histogram. All
// of it is skipped at the cost of one nil test when tracing is off.
func (m *HTTPMetrics) Wrap(logger *slog.Logger, routes []string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inFlight.Inc()
		defer m.inFlight.Dec()

		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		route := m.routeLG.Bound(NormalizeRoute(routes, r.URL.Path))

		var span *Span
		if m.tracing != nil {
			inbound, _ := ParseTraceparent(r.Header.Get(TraceparentHeader))
			ctx, s := m.tracing.StartRoot(r.Context(), r.Method+" "+route, inbound)
			if s != nil {
				span = s
				r = r.WithContext(ctx)
				w.Header().Set(TraceparentHeader, s.Context().Traceparent())
			}
		}

		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}

		elapsed := time.Since(start)
		traceID := ""
		if span != nil {
			span.SetStatus(sw.status)
			span.End()
			if span.Kept() {
				traceID = span.TraceID()
			}
		}
		m.requests.With(route, r.Method, strconv.Itoa(sw.status)).Inc()
		m.duration.With(route).ObserveExemplar(elapsed.Seconds(), traceID)

		if logger != nil {
			attrs := []slog.Attr{
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr),
			}
			if span != nil {
				attrs = append(attrs, slog.String("trace", span.TraceID()))
			}
			logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// NormalizeRoute maps a concrete request path onto the route
// allowlist. An entry matches when it equals the path, when it ends
// in "/" and prefixes the path, or segment-by-segment when it carries
// {name}-style template segments (each template segment matches any
// single non-empty path segment, so "/v1/schemas/{name}" absorbs
// every per-schema URL into one label). The longest matching entry
// wins; unmatched paths collapse to "other".
func NormalizeRoute(routes []string, path string) string {
	best := ""
	for _, rt := range routes {
		if rt == path {
			return rt // an exact entry always beats templates and prefixes
		}
		match := (strings.HasSuffix(rt, "/") && strings.HasPrefix(path, rt)) ||
			(strings.Contains(rt, "{") && templateMatch(rt, path))
		if match && len(rt) > len(best) {
			best = rt
		}
	}
	if best == "" {
		return "other"
	}
	return best
}

// templateMatch reports whether path matches the route template
// segment-by-segment, with "{...}" segments matching any single
// non-empty segment.
func templateMatch(tmpl, path string) bool {
	for {
		ts, trest, tmore := nextSegment(tmpl)
		ps, prest, pmore := nextSegment(path)
		if tmore != pmore {
			return false
		}
		if !tmore {
			return true
		}
		wild := len(ts) >= 2 && ts[0] == '{' && ts[len(ts)-1] == '}'
		if wild {
			if ps == "" {
				return false
			}
		} else if ts != ps {
			return false
		}
		tmpl, path = trest, prest
	}
}

// nextSegment splits off the leading "/"-delimited segment.
func nextSegment(s string) (seg, rest string, more bool) {
	if s == "" {
		return "", "", false
	}
	s = strings.TrimPrefix(s, "/")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i:], true
	}
	return s, "", true
}

// newRequestID returns 16 hex characters of crypto/rand entropy.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000deadbeef" // rand failure: still serve the request
	}
	return hex.EncodeToString(b[:])
}
