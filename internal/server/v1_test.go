package server

// Envelope goldens for the /v1 surface: the success shape per
// endpoint, every error code the closed set defines, and the closure
// serving path end-to-end (engine=closure on the warm hot path,
// engine=search on every fall-through shape, answers identical either
// way).

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/uni"
)

// testEnvelope decodes a v1 wire body with the data payload kept raw.
type testEnvelope struct {
	Data  json.RawMessage `json:"data"`
	Error *APIError       `json:"error"`
	Meta  *Meta           `json:"meta"`
}

func decodeEnvelope(t *testing.T, body string) testEnvelope {
	t.Helper()
	var env testEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("v1 body is not an envelope: %v\n%s", err, body)
	}
	if env.Meta == nil {
		t.Fatalf("envelope missing meta: %s", body)
	}
	if env.Meta.DurationMs < 0 {
		t.Errorf("meta.durationMs = %v", env.Meta.DurationMs)
	}
	return env
}

// decodeData decodes a success envelope's data member into out.
func decodeData(t *testing.T, body string, out any) testEnvelope {
	t.Helper()
	env := decodeEnvelope(t, body)
	if err := json.Unmarshal(env.Data, out); err != nil {
		t.Fatalf("decode data: %v\n%s", err, body)
	}
	return env
}

// isNullData reports whether the envelope's data member is JSON null.
func isNullData(d json.RawMessage) bool {
	return len(d) == 0 || string(d) == "null"
}

// waitClosure blocks until the named schema's closure handle settles
// and returns its final status.
func waitClosure(t *testing.T, sv *Server, name string) closure.Status {
	t.Helper()
	sn, err := sv.reg.Acquire(name)
	if err != nil {
		t.Fatalf("Acquire(%q): %v", name, err)
	}
	h := sn.Closure()
	sn.Release()
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("closure build for %q did not settle", name)
	}
	return h.Status()
}

// TestV1CompleteEnvelope pins the success envelope of POST
// /v1/complete: data carries the CompleteResponse, error is null, and
// meta names the snapshot and the answering engine.
func TestV1CompleteEnvelope(t *testing.T) {
	ts := testServer(t, false)
	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error != nil {
		t.Fatalf("error = %+v on success", env.Error)
	}
	var out CompleteResponse
	if err := json.Unmarshal(env.Data, &out); err != nil {
		t.Fatalf("decode data: %v", err)
	}
	want := []CompletionJSON{
		{Path: "ta@>grad@>student@>person.name", Conn: ".", SemLen: 1},
		{Path: "ta@>instructor@>teacher@>employee@>person.name", Conn: ".", SemLen: 1},
	}
	if !reflect.DeepEqual(out.Completions, want) {
		t.Errorf("completions = %+v", out.Completions)
	}
	if env.Meta.Schema != "university" || env.Meta.Generation == 0 {
		t.Errorf("meta = %+v", env.Meta)
	}
	if env.Meta.Engine != engineSearch {
		t.Errorf("meta.engine = %q, want %q (closure not enabled)", env.Meta.Engine, engineSearch)
	}
}

// TestV1SuccessEnvelopes sweeps the remaining endpoints' success
// shapes: batch, evaluate, the schema listing, and the per-schema
// detail with its SDL and closure status.
func TestV1SuccessEnvelopes(t *testing.T) {
	ts := testServer(t, true) // with store, so /v1/evaluate works

	t.Run("completeBatch", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/completeBatch", `{"queries":[{"expr":"ta~name"},{"expr":"student~office"}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		env := decodeEnvelope(t, body)
		var out BatchResponse
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if len(out.Results) != 2 {
			t.Errorf("results = %d", len(out.Results))
		}
		if env.Meta.Schema != "university" || env.Meta.Generation == 0 {
			t.Errorf("meta = %+v", env.Meta)
		}
	})

	t.Run("evaluate", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/evaluate", `{"expr":"ta~name","approve":[0]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		env := decodeEnvelope(t, body)
		var out EvaluateResponse
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if len(out.Chosen) != 1 || !reflect.DeepEqual(out.Values, []any{"Yezdi"}) {
			t.Errorf("evaluate = %+v", out)
		}
	})

	t.Run("schemas", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schemas")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env testEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode: %v", err)
		}
		var out SchemasResponse
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if len(out.Schemas) != 1 || out.Schemas[0].Name != "university" || !out.Schemas[0].Default {
			t.Errorf("schemas = %+v", out.Schemas)
		}
		if out.Schemas[0].Closure != string(closure.StateDisabled) {
			t.Errorf("closure state = %q, want disabled", out.Schemas[0].Closure)
		}
	})

	t.Run("schemaByName", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schemas/university")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env testEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode: %v", err)
		}
		var out SchemaDetailJSON
		if err := json.Unmarshal(env.Data, &out); err != nil {
			t.Fatalf("decode data: %v", err)
		}
		if out.Name != "university" || !strings.Contains(out.SDL, "isa student person") {
			t.Errorf("detail = %+v", out)
		}
		if out.ClosureStatus.State != closure.StateDisabled {
			t.Errorf("closureStatus = %+v", out.ClosureStatus)
		}
		if env.Meta.Schema != "university" {
			t.Errorf("meta = %+v", env.Meta)
		}
	})
}

// TestV1ErrorEnvelopes drives every reachable error code and requires
// the uniform envelope: data null, error {code, message}, meta with
// durationMs.
func TestV1ErrorEnvelopes(t *testing.T) {
	sv, ts := newTestSrv(t, uni.New())

	check := func(t *testing.T, body string, status, wantStatus int, wantCode string) {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("status = %d, want %d: %s", status, wantStatus, body)
		}
		env := decodeEnvelope(t, body)
		if !isNullData(env.Data) {
			t.Errorf("data = %s on error", env.Data)
		}
		if env.Error == nil || env.Error.Code != wantCode {
			t.Errorf("error = %+v, want code %q", env.Error, wantCode)
		}
		if env.Error != nil && env.Error.Message == "" {
			t.Error("error.message empty")
		}
	}

	t.Run("bad_request/malformed body", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":`)
		check(t, body, resp.StatusCode, http.StatusBadRequest, CodeBadRequest)
	})
	t.Run("bad_request/unparsable expr", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"~~~"}`)
		check(t, body, resp.StatusCode, http.StatusBadRequest, CodeBadRequest)
	})
	t.Run("bad_request/unresolvable root 422", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"nosuchclass~name"}`)
		check(t, body, resp.StatusCode, http.StatusUnprocessableEntity, CodeBadRequest)
	})
	t.Run("unknown_schema", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/complete?schema=nope", `{"expr":"ta~name"}`)
		check(t, body, resp.StatusCode, http.StatusNotFound, CodeUnknownSchema)
	})
	t.Run("unknown_schema/detail", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schemas/nope")
		if err != nil {
			t.Fatal(err)
		}
		check(t, readAll(t, resp), resp.StatusCode, http.StatusNotFound, CodeUnknownSchema)
	})
	t.Run("bad_request/reload without dir 409", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/schemas/reload", `{}`)
		check(t, body, resp.StatusCode, http.StatusConflict, CodeBadRequest)
	})
	t.Run("overloaded", func(t *testing.T) {
		sv.SetLimits(Limits{MaxConcurrent: 1, MaxQueue: -1})
		if sv.gate.acquire(context.Background()) != nil {
			t.Fatal("could not occupy the only admission slot")
		}
		defer sv.gate.release()
		resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
		check(t, body, resp.StatusCode, http.StatusTooManyRequests, CodeOverloaded)
		if resp.Header.Get("Retry-After") != "1" {
			t.Errorf("Retry-After = %q", resp.Header.Get("Retry-After"))
		}
	})
	// Routing errors under /v1 answer the envelope too: a wrong method
	// on a mounted route is 405 with its Allow header, an unmounted
	// path 404.
	for _, rt := range []struct {
		method, path string
		status       int
		code, allow  string
	}{
		{http.MethodGet, "/v1/complete", http.StatusMethodNotAllowed, CodeBadRequest, "POST"},
		{http.MethodDelete, "/v1/schemas", http.StatusMethodNotAllowed, CodeBadRequest, "GET, HEAD"},
		{http.MethodPost, "/v1/traces", http.StatusMethodNotAllowed, CodeBadRequest, "GET, HEAD"},
		{http.MethodGet, "/v1/nope", http.StatusNotFound, CodeNotFound, ""},
	} {
		t.Run(rt.code+"/routing "+rt.method+" "+rt.path, func(t *testing.T) {
			req, err := http.NewRequest(rt.method, ts.URL+rt.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			check(t, readAll(t, resp), resp.StatusCode, rt.status, rt.code)
			if got := resp.Header.Get("Allow"); got != rt.allow {
				t.Errorf("Allow = %q, want %q", got, rt.allow)
			}
		})
	}
}

// readAll drains a response body into a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestV1ClosureServing: with warming enabled, the single-gap hot path
// answers from the index (meta.engine = "closure", hit metric), every
// fall-through shape reports engine = "search", and the two engines'
// answers are identical.
func TestV1ClosureServing(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	sv.EnableClosure(1, 1<<30)
	ts := newTS(t, sv)
	if st := waitClosure(t, sv, ""); st.State != closure.StateReady {
		t.Fatalf("closure = %+v, want ready", st)
	}

	// Closure hit.
	resp, body := post(t, ts+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Meta.Engine != engineClosure {
		t.Fatalf("meta.engine = %q, want %q", env.Meta.Engine, engineClosure)
	}
	var closureOut CompleteResponse
	if err := json.Unmarshal(env.Data, &closureOut); err != nil {
		t.Fatal(err)
	}
	if got := sv.met.closureHits.Value(); got != 1 {
		t.Errorf("closureHits = %d, want 1", got)
	}

	// Fall-through shapes all answer engine=search with the same
	// completions.
	for name, reqBody := range map[string]string{
		"traced":      `{"expr":"ta~name","trace":true}`,
		"budgeted":    `{"expr":"ta~name","timeoutMs":5000}`,
		"e-overrid":   `{"expr":"ta~name","e":2}`,
		"multi-gap":   `{"expr":"ta~name.self"}`,            // not single-gap shaped
		"constrained": `{"expr":"ta~(.*)~name"}`,            // annotated gap, even degenerate
		"predicated":  `{"expr":"ta~name[self != \"zz\"]"}`, // pushed-down predicate
	} {
		resp, body := post(t, ts+"/v1/complete", reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", name, resp.StatusCode, body)
		}
		env := decodeEnvelope(t, body)
		if env.Meta.Engine != engineSearch {
			t.Errorf("%s: meta.engine = %q, want %q", name, env.Meta.Engine, engineSearch)
		}
		if name == "traced" || name == "budgeted" {
			var out CompleteResponse
			if err := json.Unmarshal(env.Data, &out); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Completions, closureOut.Completions) {
				t.Errorf("%s: search answer diverges from closure answer:\n search: %+v\n closure: %+v",
					name, out.Completions, closureOut.Completions)
			}
		}
	}
	if sv.met.closureFallbacks.Value() == 0 {
		t.Error("fallback metric never moved")
	}

	// The data payload also names the engine.
	if closureOut.Engine != engineClosure {
		t.Errorf("data.engine = %q, want %q", closureOut.Engine, engineClosure)
	}

	// /stats exposes the budget and the per-schema closure status.
	r2, err := http.Get(ts + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(readAll(t, r2)), &stats); err != nil {
		t.Fatal(err)
	}
	cl, ok := stats["closure"].(map[string]any)
	if !ok || cl["state"] != "ready" {
		t.Errorf("stats.closure = %v", stats["closure"])
	}
	if _, ok := stats["closureBudget"].(map[string]any); !ok {
		t.Errorf("stats.closureBudget = %v", stats["closureBudget"])
	}
}

// newTS wraps a server in a test listener.
func newTS(t *testing.T, sv *Server) string {
	t.Helper()
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
