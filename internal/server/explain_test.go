package server

// Goldens for the richer-gap-semantics surface: the /v1/explain
// provenance view (wire-level replay: every step chains through the
// CON table to the ranked label, every step's edge appears in the
// support set), the meta.apiVersion and meta.constrained stamps, and
// the pre-upgrade unknown-schema 404 on /v1/sessions.

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// decodeExplain unwraps a /v1/explain envelope.
func decodeExplain(t *testing.T, body string) (testEnvelope, ExplainResponse) {
	t.Helper()
	env := decodeEnvelope(t, body)
	var out ExplainResponse
	if err := json.Unmarshal(env.Data, &out); err != nil {
		t.Fatalf("decode explain data: %v\n%s", err, body)
	}
	return env, out
}

// checkReplay verifies the wire-level provenance contract of one
// explain payload: steps chain (each row's prevConn is the previous
// row's conn), the final row is the ranked label, and every traversed
// edge appears in the support listing.
func checkReplay(t *testing.T, out ExplainResponse) {
	t.Helper()
	support := map[int]bool{}
	for _, e := range out.SupportEdges {
		support[e.Rel] = true
	}
	for _, c := range out.Completions {
		if len(c.Steps) == 0 {
			t.Errorf("%s: no steps", c.Path)
			continue
		}
		for i, st := range c.Steps {
			if i > 0 && st.PrevConn != c.Steps[i-1].Conn {
				t.Errorf("%s: step %d prevConn %q does not chain from %q",
					c.Path, i, st.PrevConn, c.Steps[i-1].Conn)
			}
			if out.Support != "" && !support[st.Rel] {
				t.Errorf("%s: step %d edge %d missing from supportEdges", c.Path, i, st.Rel)
			}
		}
		last := c.Steps[len(c.Steps)-1]
		if last.Conn != c.Conn || last.SemLen != c.SemLen {
			t.Errorf("%s: replay ends at (%s, %d), ranked label is (%s, %d)",
				c.Path, last.Conn, last.SemLen, c.Conn, c.SemLen)
		}
		if c.Edges == "" || c.Edges == "0" {
			t.Errorf("%s: empty edge bitmap %q", c.Path, c.Edges)
		}
		if c.WhyRanked == "" {
			t.Errorf("%s: empty whyRanked", c.Path)
		}
	}
}

// TestV1ExplainEnvelope pins the /v1/explain success shape on both
// methods: the data payload carries the same completions as
// /v1/complete in the same order, each with a replayable derivation,
// and the envelope meta stamps apiVersion.
func TestV1ExplainEnvelope(t *testing.T) {
	ts := testServer(t, false)

	// The baseline answers, for cross-endpoint agreement.
	_, cbody := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	var cout CompleteResponse
	if err := json.Unmarshal(decodeEnvelope(t, cbody).Data, &cout); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/explain", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	env, out := decodeExplain(t, body)
	if env.Error != nil {
		t.Fatalf("error = %+v on success", env.Error)
	}
	if env.Meta.ApiVersion != APIVersion {
		t.Errorf("meta.apiVersion = %q, want %q", env.Meta.ApiVersion, APIVersion)
	}
	if env.Meta.Constrained {
		t.Error("meta.constrained = true on an unconstrained query")
	}
	if out.Expr != "ta~name" || out.Schema != "university" || out.Generation == 0 {
		t.Errorf("explain header = %+v", out)
	}
	if out.Constrained {
		t.Error("data.constrained = true on an unconstrained query")
	}
	if len(out.Completions) != len(cout.Completions) {
		t.Fatalf("explain has %d completions, complete has %d", len(out.Completions), len(cout.Completions))
	}
	for i, c := range out.Completions {
		if c.Rank != i+1 {
			t.Errorf("completion %d rank = %d", i, c.Rank)
		}
		if c.Path != cout.Completions[i].Path || c.Conn != cout.Completions[i].Conn ||
			c.SemLen != cout.Completions[i].SemLen {
			t.Errorf("completion %d diverges from /v1/complete: %+v vs %+v",
				i, c, cout.Completions[i])
		}
	}
	if out.Support == "" || out.Support == "0" || len(out.SupportEdges) == 0 {
		t.Fatalf("support missing: %q %v", out.Support, out.SupportEdges)
	}
	for _, e := range out.SupportEdges {
		if e.From == "" || e.To == "" || e.Conn == "" {
			t.Errorf("underspecified support edge %+v", e)
		}
	}
	checkReplay(t, out)

	// The GET form answers identically.
	gresp, err := http.Get(ts.URL + "/v1/explain?expr=ta~name")
	if err != nil {
		t.Fatal(err)
	}
	gbody := readAll(t, gresp)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d: %s", gresp.StatusCode, gbody)
	}
	_, gout := decodeExplain(t, gbody)
	if !reflect.DeepEqual(gout, out) {
		t.Errorf("GET and POST explains diverge:\n GET: %+v\n POST: %+v", gout, out)
	}
}

// TestV1ExplainConstrained: a regex-constrained gap explains with
// meta.constrained = true, engine = search (annotated queries never
// hit the closure index), completions that are a subset of the
// unconstrained answer, and a derivation that still replays.
func TestV1ExplainConstrained(t *testing.T) {
	ts := testServer(t, false)

	_, ubody := post(t, ts.URL+"/v1/explain", `{"expr":"ta~name"}`)
	_, uout := decodeExplain(t, ubody)
	unconstrained := map[string]bool{}
	for _, c := range uout.Completions {
		unconstrained[c.Path] = true
	}

	resp, body := post(t, ts.URL+"/v1/explain", `{"expr":"ta~(grad.*)~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	env, out := decodeExplain(t, body)
	if !env.Meta.Constrained || !out.Constrained {
		t.Errorf("constrained not stamped: meta=%v data=%v", env.Meta.Constrained, out.Constrained)
	}
	if env.Meta.Engine != engineSearch {
		t.Errorf("meta.engine = %q, want %q", env.Meta.Engine, engineSearch)
	}
	if len(out.Completions) == 0 || len(out.Completions) >= len(uout.Completions) {
		t.Fatalf("constrained completions = %d, want a proper non-empty subset of %d",
			len(out.Completions), len(uout.Completions))
	}
	for _, c := range out.Completions {
		if !unconstrained[c.Path] {
			t.Errorf("constrained answer %s not in the unconstrained set", c.Path)
		}
		if !strings.Contains(c.Path, "grad") {
			t.Errorf("answer %s escapes the grad.* constraint", c.Path)
		}
	}
	checkReplay(t, out)

	// A pushed-down predicate also stamps constrained on /v1/complete.
	_, pbody := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name[self = \"x\"]"}`)
	penv := decodeEnvelope(t, pbody)
	if !penv.Meta.Constrained {
		t.Error("meta.constrained = false on a predicate query")
	}
}

// TestV1ExplainErrors: the endpoint speaks the uniform error envelope
// on both methods.
func TestV1ExplainErrors(t *testing.T) {
	ts := testServer(t, false)
	cases := []struct {
		name       string
		get        string
		post       string
		wantStatus int
		wantCode   string
	}{
		{"missing expr", "/v1/explain", "", http.StatusBadRequest, CodeBadRequest},
		{"bad e", "/v1/explain?expr=ta~name&e=zero", "", http.StatusBadRequest, CodeBadRequest},
		{"unknown schema", "/v1/explain?schema=nope&expr=ta~name", "", http.StatusNotFound, CodeUnknownSchema},
		{"unresolvable root", "/v1/explain?expr=nosuchclass~name", "", http.StatusUnprocessableEntity, CodeBadRequest},
		{"malformed body", "", `{"expr":`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body string
			if tc.post != "" {
				resp, b := post(t, ts.URL+"/v1/explain", tc.post)
				status, body = resp.StatusCode, b
			} else {
				resp, err := http.Get(ts.URL + tc.get)
				if err != nil {
					t.Fatal(err)
				}
				status, body = resp.StatusCode, readAll(t, resp)
			}
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", status, tc.wantStatus, body)
			}
			env := decodeEnvelope(t, body)
			if env.Error == nil || env.Error.Code != tc.wantCode {
				t.Errorf("error = %+v, want code %q", env.Error, tc.wantCode)
			}
			if env.Meta.ApiVersion != APIVersion {
				t.Errorf("meta.apiVersion = %q on error, want %q", env.Meta.ApiVersion, APIVersion)
			}
		})
	}
}

// TestV1ApiVersionStamped: every v1 envelope — success and error, on
// every endpoint family — carries meta.apiVersion = "1".
func TestV1ApiVersionStamped(t *testing.T) {
	ts := testServer(t, true)
	bodies := []string{}
	for _, req := range []struct{ method, path, body string }{
		{"POST", "/v1/complete", `{"expr":"ta~name"}`},
		{"POST", "/v1/completeBatch", `{"queries":[{"expr":"ta~name"}]}`},
		{"POST", "/v1/evaluate", `{"expr":"ta~name","approve":[0]}`},
		{"POST", "/v1/explain", `{"expr":"ta~name"}`},
		{"GET", "/v1/schemas", ""},
		{"GET", "/v1/schemas/university", ""},
		{"GET", "/v1/traces", ""},
		{"GET", "/v1/queries/slow", ""},
		{"POST", "/v1/complete?schema=nope", `{"expr":"ta~name"}`}, // error envelope
		{"GET", "/v1/traces/deadbeef", ""},                         // error envelope
	} {
		if req.method == "POST" {
			_, body := post(t, ts.URL+req.path, req.body)
			bodies = append(bodies, req.path+": "+body)
		} else {
			resp, err := http.Get(ts.URL + req.path)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, req.path+": "+readAll(t, resp))
		}
	}
	for _, tagged := range bodies {
		path, body, _ := strings.Cut(tagged, ": ")
		env := decodeEnvelope(t, body)
		if env.Meta.ApiVersion != APIVersion {
			t.Errorf("%s: meta.apiVersion = %q, want %q", path, env.Meta.ApiVersion, APIVersion)
		}
	}
}

// TestSessionsUnknownSchema: an upgrade handshake naming an unknown
// schema is refused with the same 404 unknown_schema envelope as every
// other endpoint — before the upgrade consumes the connection, so the
// client gets plain JSON it can decode.
func TestSessionsUnknownSchema(t *testing.T) {
	ts := testServer(t, false)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions?schema=nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Sec-WebSocket-Key", "dGhlIHNhbXBsZSBub25jZQ==")
	req.Header.Set("Sec-WebSocket-Version", "13")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error == nil || env.Error.Code != CodeUnknownSchema {
		t.Errorf("error = %+v, want code %q", env.Error, CodeUnknownSchema)
	}
}
