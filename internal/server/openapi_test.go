package server

// Golden agreement between docs/openapi.yaml, the exported V1Paths
// list, and the routes the mux actually serves. The spec is parsed
// with plain string scanning (the repo takes no YAML dependency): a
// path is any "  /v1/...:" line under the top-level "paths:" key.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/uni"
)

// specPaths extracts the path keys of docs/openapi.yaml.
func specPaths(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../../docs/openapi.yaml")
	if err != nil {
		t.Fatalf("open spec: %v", err)
	}
	defer f.Close()
	var out []string
	inPaths := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
			continue
		case line == "paths:":
			inPaths = true
		case inPaths && strings.HasPrefix(line, "  /") && strings.HasSuffix(strings.TrimSpace(line), ":"):
			out = append(out, strings.TrimSuffix(strings.TrimSpace(line), ":"))
		case inPaths && len(line) > 0 && line[0] != ' ':
			inPaths = false // a new top-level key ends the paths block
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan spec: %v", err)
	}
	return out
}

// TestOpenAPIPathsMatchV1Paths: the spec documents exactly the routes
// V1Paths declares.
func TestOpenAPIPathsMatchV1Paths(t *testing.T) {
	got := specPaths(t)
	want := append([]string(nil), V1Paths...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("openapi.yaml paths disagree with server.V1Paths:\n spec:\n  %s\n code:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestV1PathsAreServed: every declared v1 route is actually mounted —
// requesting it (with {name} bound to a served schema) never hits the
// mux's 404 fallthrough nor the /v1 fallback's (v1Unrouted) — and the
// retired pre-/v1 routes are not: each of them gets the mux's 404 like
// any other unknown path.
func TestV1PathsAreServed(t *testing.T) {
	sv := New(uni.New(), nil, core.Paper())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	do := func(method, path string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp, readAll(t, resp)
	}
	// Handlers may legitimately reject the empty body with 400/409, or
	// answer 404 unknown_schema for an unserved name — but that carries
	// a JSON envelope, not net/http's text fallthrough.
	muxNotFound := func(resp *http.Response) bool {
		return resp.StatusCode == http.StatusNotFound &&
			!strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json")
	}
	// Under /v1 an unmounted path answers the envelope too: v1Unrouted's
	// not_found, told from a handler's own by its message.
	v1NotFound := func(resp *http.Response, body string) bool {
		var env Envelope
		return resp.StatusCode == http.StatusNotFound &&
			json.Unmarshal([]byte(body), &env) == nil && env.Error != nil &&
			strings.HasPrefix(env.Error.Message, noV1Route)
	}

	schemaName := sv.SchemaRegistry().DefaultName()
	for _, p := range V1Paths {
		path := strings.ReplaceAll(p, "{name}", schemaName)
		method := http.MethodGet
		switch p {
		case "/v1/complete", "/v1/completeBatch", "/v1/evaluate", "/v1/schemas/reload":
			method = http.MethodPost
		}
		resp, body := do(method, path)
		if muxNotFound(resp) || v1NotFound(resp, body) {
			t.Errorf("%s %s: 404 %s — declared in V1Paths but not mounted", method, p, body)
		}
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s %s: 405 — mounted under a different method than the spec documents", method, p)
		}
	}

	for _, rt := range []struct{ method, path string }{
		{http.MethodPost, "/complete"},
		{http.MethodPost, "/completeBatch"},
		{http.MethodPost, "/evaluate"},
		{http.MethodGet, "/schemas"},
		{http.MethodPost, "/schemas/reload"},
		{http.MethodGet, "/schema"},
	} {
		if resp, _ := do(rt.method, rt.path); !muxNotFound(resp) {
			t.Errorf("%s %s: status %d, want the mux's 404 for a retired route", rt.method, rt.path, resp.StatusCode)
		}
	}
}
