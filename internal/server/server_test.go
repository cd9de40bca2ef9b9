package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/uni"
)

func testServer(t *testing.T, withStore bool) *httptest.Server {
	t.Helper()
	var sv *Server
	if withStore {
		st := uni.SampleStore()
		sv = New(st.Schema(), st, core.Exact())
	} else {
		sv = New(uni.New(), nil, core.Exact())
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestHealthz(t *testing.T) {
	ts := testServer(t, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t, false)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out["schema"] != "university" || out["userClasses"].(float64) != 13 {
		t.Errorf("stats = %v", out)
	}
}

func TestCompleteEndpoint(t *testing.T) {
	ts := testServer(t, false)
	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out CompleteResponse
	decodeData(t, body, &out)
	want := []CompletionJSON{
		{Path: "ta@>grad@>student@>person.name", Conn: ".", SemLen: 1},
		{Path: "ta@>instructor@>teacher@>employee@>person.name", Conn: ".", SemLen: 1},
	}
	if !reflect.DeepEqual(out.Completions, want) {
		t.Errorf("completions = %+v", out.Completions)
	}
	if out.Calls <= 0 {
		t.Errorf("calls = %d", out.Calls)
	}
	// The second identical request is served from cache and must give
	// the same answer.
	_, body2 := post(t, ts.URL+"/v1/complete", `{"expr":"ta ~ name"}`)
	var out2 CompleteResponse
	decodeData(t, body2, &out2)
	if !reflect.DeepEqual(out2.Completions, out.Completions) {
		t.Errorf("cached answer differs: %+v", out2.Completions)
	}
}

func TestCompleteEndpointE(t *testing.T) {
	ts := testServer(t, false)
	_, body1 := post(t, ts.URL+"/v1/complete", `{"expr":"ta~course"}`)
	_, body2 := post(t, ts.URL+"/v1/complete", `{"expr":"ta~course","e":2}`)
	var r1, r2 CompleteResponse
	decodeData(t, body1, &r1)
	decodeData(t, body2, &r2)
	if len(r2.Completions) <= len(r1.Completions) {
		t.Errorf("E=2 should widen: %d vs %d", len(r2.Completions), len(r1.Completions))
	}
}

func TestCompleteErrors(t *testing.T) {
	ts := testServer(t, false)
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"expr":"ta..name"}`, http.StatusBadRequest},
		{`{"expr":"nosuch~name"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, _ := post(t, ts.URL+"/v1/complete", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/complete")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/complete status = %d", resp.StatusCode)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	ts := testServer(t, true)
	resp, body := post(t, ts.URL+"/v1/evaluate", `{"expr":"ta~name","approve":[0]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	decodeData(t, body, &out)
	if len(out.Chosen) != 1 || !reflect.DeepEqual(out.Values, []any{"Yezdi"}) {
		t.Errorf("evaluate = %+v", out)
	}
	// Empty approve approves everything.
	_, body2 := post(t, ts.URL+"/v1/evaluate", `{"expr":"department~course"}`)
	var out2 EvaluateResponse
	decodeData(t, body2, &out2)
	if len(out2.Chosen) != 2 || len(out2.Values) != 3 {
		t.Errorf("evaluate all = %+v", out2)
	}
}

func TestEvaluateWithWhere(t *testing.T) {
	ts := testServer(t, true)
	resp, body := post(t, ts.URL+"/v1/evaluate", `{"expr":"department~course where credits > 3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out EvaluateResponse
	decodeData(t, body, &out)
	if out.Where != "credits > 3" {
		t.Errorf("where = %q", out.Where)
	}
	if len(out.Values) != 1 {
		t.Errorf("values = %v", out.Values)
	}
	// A predicate that filters everything yields an empty (non-null)
	// values array.
	_, body2 := post(t, ts.URL+"/v1/evaluate", `{"expr":"ta~name where self = \"Nobody\""}`)
	var out2 EvaluateResponse
	decodeData(t, body2, &out2)
	if out2.Values == nil || len(out2.Values) != 0 {
		t.Errorf("values = %#v", out2.Values)
	}
}

// TestEvaluateWithoutStore: a served schema without an object store
// answers 404 not_found — the schema itself is known.
func TestEvaluateWithoutStore(t *testing.T) {
	ts := testServer(t, false)
	resp, body := post(t, ts.URL+"/v1/evaluate", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Error == nil || env.Error.Code != CodeNotFound {
		t.Errorf("error = %+v, want code %q", env.Error, CodeNotFound)
	}
}
