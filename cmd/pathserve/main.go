// Command pathserve serves the disambiguation mechanism over
// HTTP/JSON — the backend an interactive query interface (the paper's
// Figure 1) would call:
//
//	pathserve -addr :8080 -schema university -sample
//	pathserve -addr :8080 -schemas-dir ./schemas -default-schema university
//	pathserve -addr :8080 -schema university -closure -closure-max-bytes 268435456
//	pathserve -addr :8080 -schemas-dir ./schemas -closure -persist -data-dir ./data
//	pathserve -addr :8080 -schema university -trace-sample 0.01 -slow-threshold 250ms
//	curl -s localhost:8080/v1/complete -d '{"expr":"ta~name"}'
//	curl -s localhost:8080/v1/traces
//	curl -s localhost:8080/v1/traces/4bf92f3577b34da6a3ce929d0e0e4736
//	curl -s localhost:8080/v1/queries/slow
//	curl -s localhost:8080/v1/schemas
//	curl -s localhost:8080/v1/schemas/university
//	curl -s -X POST localhost:8080/v1/schemas/reload
//	curl -s localhost:8080/v1/explain -d '{"expr":"ta~name"}'
//	curl -s 'localhost:8080/v1/explain?expr=ta~name'
//	curl -s 'localhost:8080/v1/complete?schema=parts' -d '{"expr":"p~weight"}'
//	curl -s localhost:8080/v1/complete -d '{"expr":"ta~name","trace":true}'
//	curl -s localhost:8080/v1/complete -d '{"expr":"ta~name","timeoutMs":50}'
//	curl -s localhost:8080/v1/evaluate -d '{"expr":"ta~name","approve":[0]}'
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s localhost:8080/buildinfo
//
// The process is production-shaped: slog request logging with request
// IDs, Prometheus-style metrics at /metrics, optional pprof at
// /debug/pprof/ (-pprof), connection timeouts, a bounded completion
// cache (-cache), and graceful shutdown on SIGINT/SIGTERM. The serving
// path is hardened: every search runs under a wall-clock deadline
// (-timeout, capped by -max-timeout) and degrades to its best-so-far
// answer, concurrency is bounded by an admission gate (-max-inflight,
// -queue) that sheds with 429 beyond the queue, request bodies are
// size-capped (-max-body), handler panics are isolated, and a
// fault-injection switchboard (-faults / PATHCOMPLETE_FAULTS) exists
// for chaos drills.
//
// With -schemas-dir the server is multi-schema: every *.sdl file in
// the directory is served under its base name, requests pick one with
// ?schema=, and SIGHUP (or POST /v1/schemas/reload) reparses the
// directory and swaps atomically — in-flight searches finish on the
// snapshot they started with, and a failed reload leaves the previous
// generation serving.
//
// With -closure -persist -data-dir the warmed closure state is also
// durable: each schema's compiled index is written to the data
// directory (checksummed, fsynced, atomically renamed) when warming
// completes, and the next boot restores it instead of recompiling —
// corrupt, stale, or torn files are quarantined and the schema falls
// back to a fresh compile, so bad durable state never fails a start.
// /readyz reports readiness (default schema installed, recovery done,
// not draining) alongside the pure-liveness /healthz; SIGTERM flips
// /readyz not-ready and flushes pending saves before draining.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/objstore"
	"pathcomplete/internal/obs"
	"pathcomplete/internal/parts"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
	"pathcomplete/internal/server"
	"pathcomplete/internal/uni"
)

// config carries every flag value; split from flag parsing so startup
// validation and server assembly are table-testable.
type config struct {
	addr          string
	schemaName    string
	sdlPath       string
	schemasDir    string
	defaultSchema string
	storePath     string
	sample        bool
	engine        string
	e             int
	pprofOn       bool
	cacheCap      int
	quiet         bool

	// Hardened-path knobs.
	timeout     time.Duration // default per-request search deadline (0: none)
	maxTimeout  time.Duration // cap on any per-request "timeoutMs" (0: server default)
	maxInflight int           // admission gate width (0: server default)
	queue       int           // admission wait queue (0: default, -1: none)
	maxBody     int64         // POST body cap in bytes (0: server default)
	faults      string        // fault-injection spec ("": also consult PATHCOMPLETE_FAULTS)

	// Interactive sessions (/v1/sessions).
	maxSessions     int           // open-session cap (0: server default)
	sessionDebounce time.Duration // keystroke settle window (0: default; <0: none)

	// Materialized all-pairs closure.
	closureOn       bool  // warm an all-pairs index per schema snapshot
	closureMaxBytes int64 // byte budget across all live indexes (0: unbounded)
	closureWorkers  int   // concurrent background builds

	// Durable state (crash-safe snapshot persistence).
	persistOn bool   // persist warmed closure state; restore it on boot
	dataDir   string // directory holding the durable snapshot files

	// Span pipeline (/v1/traces, /v1/queries/slow).
	traceSample   float64       // head-sampling rate in [0, 1]
	slowThreshold time.Duration // retain+log any request at least this slow (0: off)
	spanBuffer    int           // retained-trace ring size (0: server default)
	inboundLimit  float64       // client-forced samples/sec (0: unlimited; <0: ignore the flag)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("pathserve", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.schemaName, "schema", "university", "built-in schema: university, parts, or cupid")
	fs.StringVar(&cfg.sdlPath, "sdl", "", "load the schema from an SDL file instead")
	fs.StringVar(&cfg.schemasDir, "schemas-dir", "", "serve every *.sdl schema in this directory (multi-schema mode; SIGHUP or POST /v1/schemas/reload hot-reloads it)")
	fs.StringVar(&cfg.defaultSchema, "default-schema", "", "schema name requests without ?schema= resolve to (multi-schema mode; default: first name in sorted order)")
	fs.StringVar(&cfg.storePath, "store", "", "load object data from a snapshot file")
	fs.BoolVar(&cfg.sample, "sample", false, "mount the built-in sample data (university only)")
	fs.StringVar(&cfg.engine, "engine", "paper", "engine preset: paper, safe, or exact")
	fs.IntVar(&cfg.e, "e", 1, "AGG* parameter (>= 1)")
	fs.BoolVar(&cfg.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.IntVar(&cfg.cacheCap, "cache", server.DefaultCacheCap, "completion memo cache bound (entries, >= 0)")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress per-request logging")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "default per-request search deadline (0: none beyond -max-timeout)")
	fs.DurationVar(&cfg.maxTimeout, "max-timeout", server.DefaultMaxTimeout, "cap on any per-request timeoutMs")
	fs.IntVar(&cfg.maxInflight, "max-inflight", server.DefaultMaxConcurrent, "max searches running at once")
	fs.IntVar(&cfg.queue, "queue", server.DefaultMaxQueue, "admission wait queue length (-1: shed immediately when saturated)")
	fs.Int64Var(&cfg.maxBody, "max-body", server.DefaultMaxBodyBytes, "POST body size cap in bytes")
	fs.StringVar(&cfg.faults, "faults", "", "fault-injection spec for chaos drills (e.g. delay=0.2,error=0.1); also read from "+faultinject.EnvVar)
	fs.IntVar(&cfg.maxSessions, "max-sessions", server.DefaultMaxSessions, "max interactive WebSocket sessions open at once (/v1/sessions; beyond it connects are refused with 429)")
	fs.DurationVar(&cfg.sessionDebounce, "session-debounce", server.DefaultSessionDebounce, "keystroke settle window per session: updates arriving within it coalesce into one search (negative: react to every keystroke immediately)")
	fs.BoolVar(&cfg.closureOn, "closure", false, "warm a materialized all-pairs closure index per schema snapshot in the background; single-gap queries are served from it once ready")
	fs.Int64Var(&cfg.closureMaxBytes, "closure-max-bytes", 256<<20, "byte budget across all live closure indexes and in-progress builds (0: unbounded); a build that would exceed it stops and the snapshot serves through the search kernel")
	fs.IntVar(&cfg.closureWorkers, "closure-workers", 1, "concurrent snapshot closure builds (>= 1); each build uses every core")
	fs.BoolVar(&cfg.persistOn, "persist", false, "durably persist each schema's compiled closure state to -data-dir when it finishes warming, and restore it (checksum- and schema-verified) on startup instead of recompiling; requires -closure and -data-dir")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "directory for durable state (created if absent; corrupt or stale snapshot files are moved to its quarantine/ subdirectory, never served)")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0, "head-sample this fraction of requests into /v1/traces (0: only client-forced and tail-rule traces; 1: every request)")
	fs.DurationVar(&cfg.slowThreshold, "slow-threshold", 0, "retain any request at least this slow in /v1/traces and log it at /v1/queries/slow regardless of sampling (0: off)")
	fs.IntVar(&cfg.spanBuffer, "span-buffer", 0, "retained-trace ring size (0: default "+fmt.Sprint(obs.DefaultTraceBuffer)+")")
	fs.Float64Var(&cfg.inboundLimit, "trace-inbound-limit", 0, "max client-forced samples per second honored from inbound traceparent sampled flags (0: unlimited; negative: ignore the flag entirely) — set on untrusted networks so clients cannot flush the trace ring")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// validate rejects nonsensical flag combinations at startup, before a
// listener is bound — a misconfigured server must fail loudly, not
// serve with silently-clamped values.
func (cfg config) validate() error {
	if cfg.e < 1 {
		return fmt.Errorf("-e must be >= 1, got %d", cfg.e)
	}
	if cfg.cacheCap < 0 {
		return fmt.Errorf("-cache must be >= 0, got %d", cfg.cacheCap)
	}
	switch cfg.engine {
	case "paper", "safe", "exact":
	default:
		return fmt.Errorf("unknown engine %q (want paper, safe, or exact)", cfg.engine)
	}
	if cfg.sample && (cfg.schemaName != "university" || cfg.sdlPath != "") {
		return fmt.Errorf("-sample only applies to -schema university")
	}
	if cfg.schemasDir != "" {
		if cfg.sdlPath != "" {
			return fmt.Errorf("-schemas-dir and -sdl are mutually exclusive")
		}
		if cfg.sample {
			return fmt.Errorf("-schemas-dir and -sample are mutually exclusive")
		}
		if cfg.storePath != "" {
			return fmt.Errorf("-schemas-dir and -store are mutually exclusive (stores are single-schema)")
		}
	}
	if cfg.defaultSchema != "" && cfg.schemasDir == "" {
		return fmt.Errorf("-default-schema requires -schemas-dir")
	}
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", cfg.timeout)
	}
	if cfg.maxTimeout < 0 {
		return fmt.Errorf("-max-timeout must be >= 0, got %v", cfg.maxTimeout)
	}
	if cfg.timeout > 0 && cfg.maxTimeout > 0 && cfg.timeout > cfg.maxTimeout {
		return fmt.Errorf("-timeout %v exceeds -max-timeout %v", cfg.timeout, cfg.maxTimeout)
	}
	if cfg.maxInflight < 0 {
		return fmt.Errorf("-max-inflight must be >= 0, got %d", cfg.maxInflight)
	}
	if cfg.queue < -1 {
		return fmt.Errorf("-queue must be >= -1, got %d", cfg.queue)
	}
	if cfg.maxBody < 0 {
		return fmt.Errorf("-max-body must be >= 0, got %d", cfg.maxBody)
	}
	if cfg.maxSessions < 0 {
		return fmt.Errorf("-max-sessions must be >= 0, got %d", cfg.maxSessions)
	}
	if cfg.faults != "" {
		if _, err := faultinject.ParseSpec(cfg.faults); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	if cfg.closureOn {
		if cfg.closureMaxBytes < 0 {
			return fmt.Errorf("-closure-max-bytes must be >= 0, got %d", cfg.closureMaxBytes)
		}
		if cfg.closureWorkers < 1 {
			return fmt.Errorf("-closure-workers must be >= 1, got %d", cfg.closureWorkers)
		}
	}
	if cfg.persistOn {
		if !cfg.closureOn {
			return fmt.Errorf("-persist requires -closure (the durable payload is the warmed closure state)")
		}
		if cfg.dataDir == "" {
			return fmt.Errorf("-persist requires -data-dir")
		}
	}
	if cfg.dataDir != "" && !cfg.persistOn {
		return fmt.Errorf("-data-dir requires -persist")
	}
	if cfg.traceSample < 0 || cfg.traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0, 1], got %v", cfg.traceSample)
	}
	if cfg.slowThreshold < 0 {
		return fmt.Errorf("-slow-threshold must be >= 0, got %v", cfg.slowThreshold)
	}
	if cfg.spanBuffer < 0 {
		return fmt.Errorf("-span-buffer must be >= 0, got %d", cfg.spanBuffer)
	}
	if math.IsNaN(cfg.inboundLimit) || math.IsInf(cfg.inboundLimit, 0) {
		return fmt.Errorf("-trace-inbound-limit must be finite, got %v", cfg.inboundLimit)
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // the FlagSet already printed the problem
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	// Lifecycle events logged outside the request path (durable-state
	// quarantines, save failures) go through slog.Default — point it at
	// the same handler so they share the request log's format.
	slog.SetDefault(logger)
	if err := run(cfg, logger); err != nil {
		fmt.Fprintln(os.Stderr, "pathserve:", err)
		os.Exit(1)
	}
}

func run(cfg config, logger *slog.Logger) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	sv, s, err := build(cfg)
	if err != nil {
		return err
	}

	// Chaos drills: arm fault injection from the flag, or failing that
	// from the environment — and say so loudly either way.
	switch {
	case cfg.faults != "":
		if err := faultinject.ArmSpec(cfg.faults); err != nil {
			return err
		}
		logger.Warn("fault injection ARMED", "spec", cfg.faults, "source", "-faults")
	default:
		armed, err := faultinject.FromEnv()
		if err != nil {
			return err
		}
		if armed {
			logger.Warn("fault injection ARMED", "spec", os.Getenv(faultinject.EnvVar), "source", faultinject.EnvVar)
		}
	}

	st := s.ComputeStats()
	lim := sv.Limits()
	logger.Info("pathserve starting",
		"addr", cfg.addr,
		"schema", s.Name(),
		"classes", s.NumUserClasses(),
		"rels", s.NumRels(),
		"maxIsaDepth", st.MaxIsaDepth,
		"engine", cfg.engine,
		"e", cfg.e,
		"cacheCap", cfg.cacheCap,
		"closure", cfg.closureOn,
		"persist", cfg.persistOn,
		"dataDir", cfg.dataDir,
		"traceSample", cfg.traceSample,
		"slowThreshold", cfg.slowThreshold,
		"pprof", cfg.pprofOn,
		"timeout", lim.DefaultTimeout,
		"maxTimeout", lim.MaxTimeout,
		"maxInflight", lim.MaxConcurrent,
		"queue", lim.MaxQueue,
		"maxBody", lim.MaxBodyBytes,
		"maxSessions", lim.MaxSessions,
		"sessionDebounce", lim.SessionDebounce,
	)

	reqLogger := logger
	if cfg.quiet {
		reqLogger = nil
	}
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           sv.HandlerWith(server.HandlerConfig{Logger: reqLogger, PProf: cfg.pprofOn}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// WriteTimeout must cover the slowest legitimate response; a
		// pprof CPU profile streams for its whole -seconds window, so
		// stay well above the default 30s profile.
		WriteTimeout: 120 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	var reload func() error
	if cfg.schemasDir != "" {
		reload = sv.ReloadSchemas
	}
	return serve(srv, logger, reload, sv.BeginDrain)
}

// serve runs srv until SIGINT/SIGTERM, then drains connections
// gracefully. SIGHUP triggers reload (hot schema reload in
// multi-schema mode; nil means the signal is logged and ignored).
// drain, when non-nil, runs at the start of shutdown — before the
// HTTP drain — to flip /readyz not-ready and flush pending durable
// saves, so a clean SIGTERM always leaves the newest generation on
// disk. Split from run so shutdown is testable.
func serve(srv *http.Server, logger *slog.Logger, reload func() error, drain func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

loop:
	for {
		select {
		case err := <-errc:
			// Listen failed before any signal (bad address, port in use).
			return err
		case <-hup:
			if reload == nil {
				logger.Warn("SIGHUP ignored: not serving a schemas directory")
				continue
			}
			if err := reload(); err != nil {
				// A failed reload leaves the previous generation serving;
				// the process keeps running on known-good state.
				logger.Error("schema reload failed; previous generation keeps serving", "error", err)
			} else {
				logger.Info("schemas reloaded on SIGHUP")
			}
		case <-ctx.Done():
			break loop
		}
	}
	stop() // restore default signal handling: a second ^C kills hard
	logger.Info("pathserve shutting down")
	if drain != nil {
		drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("pathserve stopped")
	return nil
}

// build assembles the server from the validated config; split from run
// so the wiring is testable without binding a port. It returns the
// server and its default schema.
func build(cfg config) (*server.Server, *schema.Schema, error) {
	var opts core.Options
	switch cfg.engine {
	case "paper":
		opts = core.Paper()
	case "safe":
		opts = core.Safe()
	case "exact":
		opts = core.Exact()
	default:
		return nil, nil, fmt.Errorf("unknown engine %q", cfg.engine)
	}
	opts.E = cfg.e

	reg, err := cfg.loadRegistry(opts)
	if err != nil {
		return nil, nil, err
	}
	sv := server.NewFromRegistry(reg)
	sv.SetCacheCap(cfg.cacheCap)
	sv.SetLimits(server.Limits{
		DefaultTimeout:  cfg.timeout,
		MaxTimeout:      cfg.maxTimeout,
		MaxConcurrent:   cfg.maxInflight,
		MaxQueue:        cfg.queue,
		MaxBodyBytes:    cfg.maxBody,
		MaxSessions:     cfg.maxSessions,
		SessionDebounce: cfg.sessionDebounce,
	})
	if err := cfg.setupPersist(sv); err != nil {
		return nil, nil, err
	}
	if cfg.closureOn {
		sv.EnableClosure(cfg.closureWorkers, cfg.closureMaxBytes)
	}
	cfg.applyTracing(sv)
	sn, err := reg.Acquire("")
	if err != nil {
		return nil, nil, err
	}
	defer sn.Release()
	return sv, sn.Schema(), nil
}

// loadRegistry loads the schemas to serve. In multi-schema mode every
// *.sdl file of -schemas-dir is served under its base name, and SIGHUP
// and POST /v1/schemas/reload reparse the directory and swap
// atomically; otherwise the one schema of -sdl or -schema is served
// with its optional object store.
func (cfg config) loadRegistry(opts core.Options) (*registry.Registry, error) {
	if cfg.schemasDir != "" {
		reg := registry.New(opts)
		if err := reg.LoadDir(cfg.schemasDir); err != nil {
			return nil, err
		}
		if cfg.defaultSchema != "" {
			if err := reg.SetDefault(cfg.defaultSchema); err != nil {
				return nil, fmt.Errorf("-default-schema: %w", err)
			}
		}
		return reg, nil
	}

	var (
		s     *schema.Schema
		store *objstore.Store
	)
	switch {
	case cfg.sdlPath != "":
		f, err := os.Open(cfg.sdlPath)
		if err != nil {
			return nil, err
		}
		s, err = sdl.Parse(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	case cfg.schemaName == "university":
		if cfg.sample {
			store = uni.SampleStore()
			s = store.Schema()
		} else {
			s = uni.New()
		}
	case cfg.schemaName == "parts":
		s = parts.New()
	case cfg.schemaName == "cupid":
		w, err := cupid.Generate(cupid.DefaultConfig())
		if err != nil {
			return nil, err
		}
		s = w.Schema
	default:
		return nil, fmt.Errorf("unknown schema %q", cfg.schemaName)
	}
	if cfg.storePath != "" {
		f, err := os.Open(cfg.storePath)
		if err != nil {
			return nil, err
		}
		store, err = objstore.Load(s, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return registry.Static(s, store, opts), nil
}

// setupPersist opens the durable store under -data-dir and wires it
// into the registry and server. It must run before EnableClosure: the
// retrofit warm pass that EnableClosure triggers is where each
// snapshot consults the store and restores from disk instead of
// recompiling. Opening the store also sweeps temp-file debris a
// crashed predecessor left behind; corrupt or stale snapshots are
// quarantined at restore time, so bad durable state can never fail
// the boot.
func (cfg config) setupPersist(sv *server.Server) error {
	if !cfg.persistOn {
		return nil
	}
	ps, err := persist.Open(cfg.dataDir)
	if err != nil {
		return fmt.Errorf("-data-dir: %w", err)
	}
	sv.SchemaRegistry().EnablePersist(ps)
	sv.AttachPersist()
	return nil
}

// applyTracing rebuilds the server's span pipeline when any tracing
// flag departs from the defaults; the server's zero-config pipeline
// (client-forced sampling only) is kept otherwise.
func (cfg config) applyTracing(sv *server.Server) {
	if cfg.traceSample == 0 && cfg.slowThreshold == 0 && cfg.spanBuffer == 0 && cfg.inboundLimit == 0 {
		return
	}
	sv.SetTracing(obs.TraceConfig{
		SampleRate:    cfg.traceSample,
		SlowThreshold: cfg.slowThreshold,
		BufferSize:    cfg.spanBuffer,
		InboundLimit:  cfg.inboundLimit,
	})
}
