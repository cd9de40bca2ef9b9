package server

// The serving-layer half of durable persistence: the health split
// (/healthz liveness vs /readyz readiness, both ungated by admission),
// drain semantics (BeginDrain flips readiness and flushes pending
// saves while liveness keeps answering), the persistStatus block on
// /stats and /v1/schemas/{name}, and the scrape-synced persist metric
// families — including a restart that must report restored state.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/uni"
)

// persistServer boots a closure-warming, persistence-enabled server
// over the given SDL files and data directory, returning the server
// and its listener. Reusing data across calls models a restart.
func persistServer(t *testing.T, files map[string]string, data string) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	msWriteDir(t, dir, files)
	ps, err := persist.Open(data)
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	reg := registry.New(core.Exact())
	reg.EnablePersist(ps)
	if err := reg.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	sv := NewFromRegistry(reg)
	if sv.AttachPersist() != ps {
		t.Fatal("AttachPersist did not return the registry's store")
	}
	// EnableClosure after AttachPersist, the pathserve boot order: the
	// retrofit warm pass runs the restore state machine with the
	// observer already listening.
	sv.EnableClosure(2, 1<<30)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return sv, ts
}

// waitSaved blocks until name's current generation is durably on disk.
func waitSaved(t *testing.T, sv *Server, name string) {
	t.Helper()
	ps := sv.reg.PersistStore()
	if st := waitClosure(t, sv, name); st.State != closure.StateReady {
		t.Fatalf("closure = %+v, want ready", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sn, err := sv.reg.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, st := sn.Generation(), sn.ClosureStatus()
		sn.Release()
		if g, ok := ps.SavedGeneration(name); st.Restored || (ok && g >= gen) {
			ps.Flush()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to persist", name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getReadyz(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, body := getBody(t, url+"/readyz")
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("readyz body is not JSON: %v\n%s", err, body)
	}
	return resp.StatusCode, m
}

// TestReadyzLifecycle walks the readiness state machine: not ready
// before a default schema exists, ready once it does, not ready again
// after BeginDrain — with /healthz answering 200 (liveness) at every
// stage.
func TestReadyzLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := registry.New(core.Exact())
	sv := NewFromRegistry(reg)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)

	assertAlive := func(stage string) {
		t.Helper()
		resp, body := getBody(t, ts.URL+"/healthz")
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
			t.Fatalf("%s: healthz = %d %s, want alive throughout", stage, resp.StatusCode, body)
		}
	}

	// No schemas installed yet: alive but not ready.
	status, m := getReadyz(t, ts.URL)
	if status != http.StatusServiceUnavailable || m["status"] != "starting" {
		t.Fatalf("empty registry: readyz = %d %v, want 503 starting", status, m)
	}
	assertAlive("starting")

	msWriteDir(t, dir, map[string]string{"alpha": msSchemaV1})
	if err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	status, m = getReadyz(t, ts.URL)
	if status != http.StatusOK || m["status"] != "ready" || m["schema"] != "alpha" {
		t.Fatalf("after install: readyz = %d %v, want 200 ready", status, m)
	}
	assertAlive("ready")

	if sv.Draining() {
		t.Fatal("draining before BeginDrain")
	}
	sv.BeginDrain()
	sv.BeginDrain() // idempotent
	if !sv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	status, m = getReadyz(t, ts.URL)
	if status != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("draining: readyz = %d %v, want 503 draining", status, m)
	}
	assertAlive("draining")
}

// TestHealthUngatedUnderSaturation pins the split's point: with the
// admission gate saturated (search traffic shedding 429), both health
// endpoints still answer instantly — an overloaded process is alive
// and ready, and must not get restarted or unrouted for being busy.
func TestHealthUngatedUnderSaturation(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())
	sv.SetLimits(Limits{MaxConcurrent: 1, MaxQueue: -1})
	if sv.gate.acquire(context.Background()) != admitOK {
		t.Fatal("could not occupy the only admission slot")
	}
	defer sv.gate.release()

	if resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gate not saturated: complete = %d %s", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under saturation = %d, want 200", resp.StatusCode)
	}
	if status, m := getReadyz(t, ts.URL); status != http.StatusOK {
		t.Errorf("readyz under saturation = %d %v, want 200", status, m)
	}
}

// TestPersistStatusSurfaces exercises the introspection plumbing over
// a real save/restore cycle: a first boot that warms and persists,
// then a restart over the same data directory that must come up
// restored — each stage checked on /v1/schemas/{name}, /stats, and
// the /metrics families.
func TestPersistStatusSurfaces(t *testing.T) {
	data := t.TempDir()
	files := map[string]string{"alpha": msSchemaV1}

	detail := func(ts *httptest.Server) SchemaDetailJSON {
		t.Helper()
		resp, body := getBody(t, ts.URL+"/v1/schemas/alpha")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schema detail = %d %s", resp.StatusCode, body)
		}
		var out SchemaDetailJSON
		if err := json.Unmarshal(decodeEnvelope(t, body).Data, &out); err != nil {
			t.Fatalf("decode detail: %v", err)
		}
		return out
	}

	// First boot: compiled fresh, then persisted.
	sv1, ts1 := persistServer(t, files, data)
	waitSaved(t, sv1, "alpha")
	d := detail(ts1)
	if d.PersistStatus == nil || !d.PersistStatus.Enabled || !d.PersistStatus.Saved {
		t.Fatalf("first boot persistStatus = %+v, want enabled+saved", d.PersistStatus)
	}
	if d.PersistStatus.Restored {
		t.Fatalf("first boot persistStatus = %+v: nothing existed to restore", d.PersistStatus)
	}
	if d.PersistStatus.SavedGeneration != d.Generation {
		t.Fatalf("savedGeneration %d != generation %d", d.PersistStatus.SavedGeneration, d.Generation)
	}

	// /stats carries the store counters and the per-schema status.
	_, statsBody := getBody(t, ts1.URL+"/stats")
	var stats struct {
		Persist       *persist.Stats     `json:"persist"`
		PersistStatus *PersistStatusJSON `json:"persistStatus"`
	}
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Persist == nil || stats.Persist.Saves == 0 || stats.PersistStatus == nil || !stats.PersistStatus.Enabled {
		t.Fatalf("stats persist block = %+v / %+v", stats.Persist, stats.PersistStatus)
	}

	// The scrape-synced counter families agree with the store.
	_, metricsBody := getBody(t, ts1.URL+"/metrics")
	if !strings.Contains(metricsBody, "pathcomplete_persist_saves_total 1") {
		t.Errorf("metrics missing persist saves:\n%s", grepLines(metricsBody, "persist_saves"))
	}

	// Restart over the same data: restored from disk, zero recompiles.
	sv2, ts2 := persistServer(t, files, data)
	waitSaved(t, sv2, "alpha")
	d2 := detail(ts2)
	if d2.PersistStatus == nil || !d2.PersistStatus.Enabled || !d2.PersistStatus.Restored || !d2.PersistStatus.Saved {
		t.Fatalf("restart persistStatus = %+v, want enabled+saved+restored", d2.PersistStatus)
	}
	if st := sv2.reg.PersistStore().Stats(); st.Restores != 1 || st.Recompiles != 0 {
		t.Fatalf("restart store stats = %+v, want 1 restore, 0 recompiles", st)
	}
	_, metricsBody2 := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(metricsBody2, "pathcomplete_persist_restores_total 1") {
		t.Errorf("restart metrics missing restore:\n%s", grepLines(metricsBody2, "persist_restores"))
	}
}

// TestPersistStatusDisabled: without a store the block is present but
// reports enabled=false, so clients can distinguish "no persistence
// configured" from "nothing saved yet".
func TestPersistStatusDisabled(t *testing.T) {
	_, ts, _ := multiServer(t, map[string]string{"alpha": msSchemaV1})
	resp, body := getBody(t, ts.URL+"/v1/schemas/alpha")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schema detail = %d", resp.StatusCode)
	}
	var out SchemaDetailJSON
	if err := json.Unmarshal(decodeEnvelope(t, body).Data, &out); err != nil {
		t.Fatal(err)
	}
	if out.PersistStatus == nil || out.PersistStatus.Enabled || out.PersistStatus.Saved {
		t.Fatalf("persistStatus without a store = %+v", out.PersistStatus)
	}
}

// grepLines returns the lines of text containing substr, for failure
// messages that would otherwise dump a whole /metrics exposition.
func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
