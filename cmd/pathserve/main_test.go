package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pathcomplete/internal/server"
)

func TestBuildVariants(t *testing.T) {
	cases := []struct {
		name, schema string
		sample       bool
		engine       string
	}{
		{"university", "university", false, "paper"},
		{"university sample", "university", true, "exact"},
		{"parts", "parts", false, "safe"},
	}
	for _, tc := range cases {
		sv, s, err := build(config{schemaName: tc.schema, sample: tc.sample, engine: tc.engine, e: 1})
		if err != nil {
			t.Errorf("%s: build: %v", tc.name, err)
			continue
		}
		if sv == nil || s == nil {
			t.Errorf("%s: nil result", tc.name)
			continue
		}
		// The handler answers health checks with the JSON liveness
		// document.
		ts := httptest.NewServer(sv.Handler())
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Errorf("%s: healthz: %v", tc.name, err)
		} else {
			var health struct {
				Status string `json:"status"`
				Schema string `json:"schema"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
				t.Errorf("%s: healthz decode: %v", tc.name, err)
			} else if health.Status != "ok" || health.Schema != tc.schema {
				t.Errorf("%s: healthz = %+v", tc.name, health)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("%s: healthz status %d", tc.name, resp.StatusCode)
			}
		}
		ts.Close()
	}
}

// TestBuildAppliesLimits: the hardened-path and session flags land on
// the server's resolved limits, in single- and multi-schema mode alike.
func TestBuildAppliesLimits(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tiny.sdl"), []byte("schema tiny\nisa a b\nattr b v I\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, schemasDir := range []string{"", dir} {
		sv, _, err := build(config{
			schemaName:      "university",
			schemasDir:      schemasDir,
			engine:          "paper",
			e:               1,
			timeout:         2 * time.Second,
			maxTimeout:      10 * time.Second,
			maxInflight:     7,
			queue:           3,
			maxBody:         2048,
			maxSessions:     3,
			sessionDebounce: -time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		lim := sv.Limits()
		if lim.DefaultTimeout != 2*time.Second || lim.MaxTimeout != 10*time.Second ||
			lim.MaxConcurrent != 7 || lim.MaxQueue != 3 || lim.MaxBodyBytes != 2048 ||
			lim.MaxSessions != 3 || lim.SessionDebounce != -time.Nanosecond {
			t.Errorf("schemas-dir %q: limits = %+v", schemasDir, lim)
		}
	}
}

// TestBuildAppliesTracing: the tracing flags land on the server's span
// pipeline; with all three at zero the default pipeline stays in place.
func TestBuildAppliesTracing(t *testing.T) {
	cfg := config{schemaName: "university", engine: "paper", e: 1,
		traceSample: 0.25, slowThreshold: 250 * time.Millisecond, spanBuffer: 64,
		inboundLimit: 16}
	sv, _, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.applyTracing(sv)
	got := sv.Tracing().Config()
	if got.SampleRate != 0.25 || got.SlowThreshold != 250*time.Millisecond || got.BufferSize != 64 ||
		got.InboundLimit != 16 {
		t.Errorf("tracing config = %+v", got)
	}

	sv2, _, err := build(config{schemaName: "university", engine: "paper", e: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := sv2.Tracing()
	(config{}).applyTracing(sv2)
	if sv2.Tracing() != before {
		t.Error("zero tracing flags replaced the default pipeline")
	}
}

// TestValidateFlags is the startup-validation table: a misconfigured
// process must refuse to start, not serve with clamped values.
func TestValidateFlags(t *testing.T) {
	valid := config{schemaName: "university", engine: "paper", e: 1, maxTimeout: 30 * time.Second}
	cases := []struct {
		name    string
		mutate  func(*config)
		wantErr string
	}{
		{"valid", func(c *config) {}, ""},
		{"e zero", func(c *config) { c.e = 0 }, "-e must be >= 1"},
		{"e negative", func(c *config) { c.e = -3 }, "-e must be >= 1"},
		{"cache negative", func(c *config) { c.cacheCap = -1 }, "-cache must be >= 0"},
		{"unknown engine", func(c *config) { c.engine = "warp" }, "unknown engine"},
		{"sample on parts", func(c *config) { c.schemaName = "parts"; c.sample = true }, "-sample only applies"},
		{"negative timeout", func(c *config) { c.timeout = -time.Second }, "-timeout must be >= 0"},
		{"negative max-timeout", func(c *config) { c.maxTimeout = -time.Second }, "-max-timeout must be >= 0"},
		{"timeout above cap", func(c *config) { c.timeout = time.Minute }, "exceeds -max-timeout"},
		{"negative inflight", func(c *config) { c.maxInflight = -1 }, "-max-inflight must be >= 0"},
		{"queue below -1", func(c *config) { c.queue = -2 }, "-queue must be >= -1"},
		{"negative body cap", func(c *config) { c.maxBody = -5 }, "-max-body must be >= 0"},
		{"bad faults spec", func(c *config) { c.faults = "delay=lots" }, "-faults"},
		{"queue minus one ok", func(c *config) { c.queue = -1 }, ""},
		{"trace-sample negative", func(c *config) { c.traceSample = -0.1 }, "-trace-sample must be in [0, 1]"},
		{"trace-sample above one", func(c *config) { c.traceSample = 1.5 }, "-trace-sample must be in [0, 1]"},
		{"negative slow-threshold", func(c *config) { c.slowThreshold = -time.Second }, "-slow-threshold must be >= 0"},
		{"negative span-buffer", func(c *config) { c.spanBuffer = -1 }, "-span-buffer must be >= 0"},
		{"NaN inbound limit", func(c *config) { c.inboundLimit = math.NaN() }, "-trace-inbound-limit must be finite"},
		{"inf inbound limit", func(c *config) { c.inboundLimit = math.Inf(1) }, "-trace-inbound-limit must be finite"},
		{"negative inbound limit ok", func(c *config) { c.inboundLimit = -1 }, ""},
		{"persist without closure", func(c *config) { c.persistOn = true; c.dataDir = "/tmp/x" }, "-persist requires -closure"},
		{"persist without data-dir", func(c *config) { c.persistOn = true; c.closureOn = true; c.closureWorkers = 1 }, "-persist requires -data-dir"},
		{"data-dir without persist", func(c *config) { c.dataDir = "/tmp/x" }, "-data-dir requires -persist"},
		{"persist ok", func(c *config) {
			c.persistOn = true
			c.closureOn = true
			c.closureWorkers = 1
			c.dataDir = "/tmp/x"
		}, ""},
		{"tracing knobs ok", func(c *config) {
			c.traceSample = 0.01
			c.slowThreshold = 250 * time.Millisecond
			c.spanBuffer = 64
			c.inboundLimit = 16
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidConfig: run surfaces validation errors before
// binding a listener.
func TestRunRejectsInvalidConfig(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	err := run(config{schemaName: "university", engine: "paper", e: 0}, logger)
	if err == nil || !strings.Contains(err.Error(), "-e must be >= 1") {
		t.Errorf("run with -e 0 = %v", err)
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-schema", "parts", "-engine", "exact", "-e", "3",
		"-timeout", "5s", "-max-inflight", "9", "-queue", "-1",
		"-max-body", "4096", "-faults", "delay=0.5,seed=1",
	})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	if cfg.schemaName != "parts" || cfg.engine != "exact" || cfg.e != 3 ||
		cfg.timeout != 5*time.Second || cfg.maxInflight != 9 || cfg.queue != -1 ||
		cfg.maxBody != 4096 || cfg.faults != "delay=0.5,seed=1" {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.maxTimeout != server.DefaultMaxTimeout || cfg.cacheCap != server.DefaultCacheCap {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if _, err := parseFlags([]string{"-e", "not-a-number"}); err == nil {
		t.Error("unparsable flag value should error")
	}
	// Retired flags are unknown flags, not silently ignored ones.
	for _, args := range [][]string{{"-parallel", "2"}, {"-legacy-routes", "off"}} {
		_, err := parseFlags(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("parseFlags(%q) = %v, want an undefined-flag error", args, err)
		}
	}
}

// pickAddr reserves a free localhost port and releases it for the
// server under test (a benign race: nothing else grabs it in-process).
func pickAddr(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(ts.URL, "http://")
	ts.Close()
	return addr
}

func TestServeGracefulShutdown(t *testing.T) {
	sv, _, err := build(config{schemaName: "university", engine: "paper", e: 1})
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	addr := pickAddr(t)
	srv := &http.Server{Addr: addr, Handler: sv.Handler()}
	done := make(chan error, 1)
	drained := make(chan struct{})
	go func() { done <- serve(srv, logger, nil, func() { close(drained) }) }()

	// Wait for the listener, then verify it serves.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up on %s: %v", addr, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// SIGTERM must drain and return nil (graceful), not crash.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down after SIGTERM")
	}
	select {
	case <-drained:
	default:
		t.Error("drain hook did not run during shutdown")
	}
}

func TestServeListenError(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := &http.Server{Addr: "256.256.256.256:99999"}
	if err := serve(srv, logger, nil, nil); err == nil {
		t.Error("impossible address should surface the listen error")
	}
}

// TestBuildPersistRestore boots the full pathserve wiring with
// durable persistence twice over one data directory: the first boot
// compiles, warms, and saves; the second restores from disk — each
// stage observed through the public HTTP surfaces (/v1/schemas/{name}
// persistStatus, /readyz).
func TestBuildPersistRestore(t *testing.T) {
	data := t.TempDir()
	cfg := config{schemaName: "university", engine: "exact", e: 1,
		closureOn: true, closureWorkers: 1, persistOn: true, dataDir: data}

	type detail struct {
		ClosureStatus struct {
			State    string `json:"state"`
			Restored bool   `json:"restored"`
		} `json:"closureStatus"`
		PersistStatus struct {
			Enabled  bool `json:"enabled"`
			Saved    bool `json:"saved"`
			Restored bool `json:"restored"`
		} `json:"persistStatus"`
	}
	getDetail := func(ts *httptest.Server) detail {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/schemas/university")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Data detail `json:"data"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return env.Data
	}
	assertReady := func(ts *httptest.Server) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("readyz = %d, want 200", resp.StatusCode)
		}
	}

	sv1, _, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(sv1.Handler())
	defer ts1.Close()
	assertReady(ts1)
	deadline := time.Now().Add(10 * time.Second)
	var d detail
	for d = getDetail(ts1); !d.PersistStatus.Saved; d = getDetail(ts1) {
		if time.Now().After(deadline) {
			t.Fatalf("first boot never persisted: %+v", d)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !d.PersistStatus.Enabled || d.PersistStatus.Restored {
		t.Fatalf("first boot persistStatus = %+v, want enabled+saved, not restored", d.PersistStatus)
	}
	sv1.BeginDrain() // the SIGTERM path: flush anything still pending

	sv2, _, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	assertReady(ts2)
	d2 := getDetail(ts2)
	if d2.ClosureStatus.State != "ready" || !d2.ClosureStatus.Restored {
		t.Fatalf("restart closure = %+v, want ready+restored with no rebuild", d2.ClosureStatus)
	}
	if !d2.PersistStatus.Restored || !d2.PersistStatus.Saved {
		t.Fatalf("restart persistStatus = %+v, want saved+restored", d2.PersistStatus)
	}
}

func TestBuildSDL(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "s.sdl")
	if err := os.WriteFile(p, []byte("schema tiny\nisa a b\nattr b v I\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, s, err := build(config{sdlPath: p, engine: "paper", e: 1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if s.Name() != "tiny" {
		t.Errorf("schema name = %q", s.Name())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, _, err := build(config{schemaName: "nope", engine: "paper", e: 1}); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Errorf("err = %v", err)
	}
	if _, _, err := build(config{schemaName: "university", engine: "warp", e: 1}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("err = %v", err)
	}
	if _, _, err := build(config{sdlPath: "/nonexistent.sdl", engine: "paper", e: 1}); err == nil {
		t.Error("missing SDL should error")
	}
	if _, _, err := build(config{schemaName: "university", storePath: "/nonexistent.json", engine: "paper", e: 1}); err == nil {
		t.Error("missing store should error")
	}
}
