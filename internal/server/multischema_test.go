package server

// Multi-schema serving-path tests: the /v1/schemas listing, schema
// selection and 404s, per-schema cache shard isolation, hot reload
// invalidation (a post-reload query must never see a pre-reload
// answer), and the HTTP-level reload race drill (zero non-200s across
// 100 generations under concurrent clients, with a snapshot-leak
// assertion at the end).

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/uni"
)

// The same distinguishable pair the registry tests use: the completion
// of "a~name" renders "a$>part.name" under v1 and "a$>link.name" under
// v2, so response bodies identify the generation that served them.
const (
	msSchemaV1 = "class a\nclass b\nhaspart a b part whole\nattr b name C\n"
	msSchemaV2 = "class a\nclass c\nhaspart a c link rev\nattr c name C\n"

	msAnswerV1 = "a$>part.name"
	msAnswerV2 = "a$>link.name"
)

func msWriteDir(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name+".sdl"), []byte(text), 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
}

// multiServer boots a server over a fresh schemas directory holding the
// given SDL files and returns the server, its test listener, and the
// directory (for reload tests to rewrite).
func multiServer(t *testing.T, files map[string]string) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	msWriteDir(t, dir, files)
	reg := registry.New(core.Exact())
	if err := reg.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	sv := NewFromRegistry(reg)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return sv, ts, dir
}

// completeHTTP posts one completion query and decodes the response.
func completeHTTP(t *testing.T, url, schema, expr string) (int, CompleteResponse, string) {
	t.Helper()
	u := url + "/v1/complete"
	if schema != "" {
		u += "?schema=" + schema
	}
	resp, body := post(t, u, fmt.Sprintf(`{"expr": %q}`, expr))
	var out CompleteResponse
	if resp.StatusCode == http.StatusOK {
		decodeData(t, body, &out)
	}
	return resp.StatusCode, out, body
}

// TestSchemasGolden pins the exact shape of the /v1/schemas listing for a
// two-schema registry: names sorted, shape counts, the default flag on
// exactly the default entry, and fresh generations (normalized before
// the golden comparison because the load order of a directory's files
// is not specified).
func TestSchemasGolden(t *testing.T) {
	_, ts, _ := multiServer(t, map[string]string{"alpha": msSchemaV1, "beta": msSchemaV2})
	resp, body := getBody(t, ts.URL+"/v1/schemas")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got SchemasResponse
	decodeData(t, body, &got)
	// The two snapshots carry generations {1, 2} in load order, which is
	// unspecified for a directory; assert the set and then normalize.
	gens := map[uint64]bool{}
	for i, s := range got.Schemas {
		gens[s.Generation] = true
		got.Schemas[i].Generation = 0
	}
	if !gens[1] || !gens[2] || len(gens) != 2 {
		t.Errorf("snapshot generations = %v, want {1, 2}", gens)
	}
	if got.Generation != 2 {
		t.Errorf("registry generation = %d, want 2", got.Generation)
	}
	got.Generation = 0

	want := SchemasResponse{
		Default: "alpha",
		Schemas: []SchemaInfoJSON{
			{Name: "alpha", Classes: 2, Rels: 4, Default: true, Closure: "disabled"},
			{Name: "beta", Classes: 2, Rels: 4, Closure: "disabled"},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/schemas mismatch:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestUnknownSchema404: every snapshot-pinning endpoint answers 404
// with a JSON error for a name the registry does not serve, and the
// misses are counted.
func TestUnknownSchema404(t *testing.T) {
	sv, ts, _ := multiServer(t, map[string]string{"alpha": msSchemaV1})
	status, _, body := completeHTTP(t, ts.URL, "nope", "a~name")
	if status != http.StatusNotFound {
		t.Errorf("POST /v1/complete?schema=nope: status = %d, want 404 (%s)", status, body)
	}
	if !strings.Contains(body, "unknown schema") {
		t.Errorf("404 body lacks the cause: %q", body)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/schemas/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/schemas/nope: status = %d, want 404", resp.StatusCode)
	}
	var sb strings.Builder
	if err := sv.metReg.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "pathcomplete_unknown_schema_total 2") {
		t.Errorf("unknown-schema counter not at 2:\n%s", grepMetric(sb.String(), "unknown_schema"))
	}
}

func grepMetric(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestPerSchemaCacheIsolation: the same expression against two schemas
// hits two distinct cache shards — alpha's warm entry neither leaks its
// answer to beta nor counts as beta's hit.
func TestPerSchemaCacheIsolation(t *testing.T) {
	_, ts, _ := multiServer(t, map[string]string{"alpha": msSchemaV1, "beta": msSchemaV2})
	st, first, _ := completeHTTP(t, ts.URL, "alpha", "a~name")
	if st != 200 || first.Cached || first.Completions[0].Path != msAnswerV1 {
		t.Fatalf("alpha cold: status=%d cached=%v %+v", st, first.Cached, first.Completions)
	}
	st, warm, _ := completeHTTP(t, ts.URL, "alpha", "a~name")
	if st != 200 || !warm.Cached {
		t.Errorf("alpha warm: status=%d cached=%v, want a cache hit", st, warm.Cached)
	}
	// Same expression, other schema: must be a cold miss in beta's own
	// shard with beta's own answer.
	st, other, _ := completeHTTP(t, ts.URL, "beta", "a~name")
	if st != 200 {
		t.Fatalf("beta: status = %d", st)
	}
	if other.Cached {
		t.Errorf("beta first query was served from alpha's cache shard")
	}
	if got := other.Completions[0].Path; got != msAnswerV2 {
		t.Errorf("beta answer = %q, want %q (cross-schema cache leak)", got, msAnswerV2)
	}
	if other.Schema != "beta" || first.Schema != "alpha" {
		t.Errorf("responses misattributed: %q / %q", first.Schema, other.Schema)
	}
}

// TestReloadNeverServesStaleAnswer is the cache/singleflight regression
// test for hot reload: after POST /v1/schemas/reload swaps in a changed
// schema, the same query must return the new answer from a fresh shard
// — never the (still warm) pre-reload completion.
func TestReloadNeverServesStaleAnswer(t *testing.T) {
	_, ts, dir := multiServer(t, map[string]string{"main": msSchemaV1})
	st, cold, _ := completeHTTP(t, ts.URL, "", "a~name")
	if st != 200 || cold.Completions[0].Path != msAnswerV1 {
		t.Fatalf("pre-reload: status=%d %+v", st, cold.Completions)
	}
	if st, warm, _ := completeHTTP(t, ts.URL, "", "a~name"); st != 200 || !warm.Cached {
		t.Fatalf("pre-reload warm: status=%d cached=%v", st, warm.Cached)
	}

	msWriteDir(t, dir, map[string]string{"main": msSchemaV2})
	resp, body := post(t, ts.URL+"/v1/schemas/reload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status=%d body=%s", resp.StatusCode, body)
	}

	st, after, _ := completeHTTP(t, ts.URL, "", "a~name")
	if st != 200 {
		t.Fatalf("post-reload: status = %d", st)
	}
	if after.Cached {
		t.Errorf("post-reload query served from a stale cache shard")
	}
	if got := after.Completions[0].Path; got != msAnswerV2 {
		t.Errorf("post-reload answer = %q, want %q (stale generation leaked)", got, msAnswerV2)
	}
	if after.Generation <= cold.Generation {
		t.Errorf("generation did not advance: %d -> %d", cold.Generation, after.Generation)
	}
	// The new generation's answer is itself cacheable.
	if st, warm, _ := completeHTTP(t, ts.URL, "", "a~name"); st != 200 || !warm.Cached || warm.Completions[0].Path != msAnswerV2 {
		t.Errorf("post-reload warm: status=%d cached=%v %+v", st, warm.Cached, warm.Completions)
	}
}

// TestReloadWithoutDir409: a statically populated registry has nothing
// to reload from; the endpoint reports the conflict rather than a
// generic failure.
func TestReloadWithoutDir409(t *testing.T) {
	sv := New(uni.New(), nil, core.Exact())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	resp, body := post(t, ts.URL+"/v1/schemas/reload", "")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("status = %d, want 409 (%s)", resp.StatusCode, body)
	}
}

// TestHTTPReloadRace is the serving-layer half of the hot-reload drill
// (the registry-level half lives in internal/registry): concurrent
// clients hammer /v1/complete and /v1/schemas through 100 reload generations
// that alternate the schema's shape. Every response must be a 200 with
// one of the two possible answers; afterwards the registry must have
// drained every superseded snapshot (Live == served names — the leak
// assertion). Run under -race by the CI race job.
func TestHTTPReloadRace(t *testing.T) {
	sv, ts, dir := multiServer(t, map[string]string{"main": msSchemaV1})

	const (
		clients = 6
		reloads = 100
	)
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		requests atomic.Int64
	)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !stop.Load() {
				if id == 0 {
					// One client watches the listing while the others search.
					resp, err := http.Get(ts.URL + "/v1/schemas")
					if err != nil {
						errs <- fmt.Errorf("GET /v1/schemas: %w", err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("GET /v1/schemas: status %d", resp.StatusCode)
						return
					}
					requests.Add(1)
					continue
				}
				st, out, body := completeHTTP(t, ts.URL, "main", "a~name")
				if st != http.StatusOK {
					errs <- fmt.Errorf("complete: status %d: %s", st, body)
					return
				}
				if len(out.Completions) != 1 {
					errs <- fmt.Errorf("complete: %d completions", len(out.Completions))
					return
				}
				if p := out.Completions[0].Path; p != msAnswerV1 && p != msAnswerV2 {
					errs <- fmt.Errorf("gen %d: impossible answer %q", out.Generation, p)
					return
				}
				requests.Add(1)
			}
		}(i)
	}

	for i := 0; i < reloads; i++ {
		text := msSchemaV1
		if i%2 == 0 {
			text = msSchemaV2
		}
		msWriteDir(t, dir, map[string]string{"main": text})
		// Alternate the two reload entry points: the HTTP handler and
		// the programmatic one the SIGHUP path uses.
		if i%2 == 0 {
			resp, body := post(t, ts.URL+"/v1/schemas/reload", "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reload %d: status=%d body=%s", i, resp.StatusCode, body)
			}
		} else if err := sv.ReloadSchemas(); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if requests.Load() == 0 {
		t.Fatalf("no client request completed — the drill exercised nothing")
	}
	if got, want := sv.reg.Live(), len(sv.reg.Names()); got != want {
		t.Errorf("Live() = %d after drain, want %d (snapshot leak across %d reloads)", got, want, reloads)
	}
	if got := sv.reg.Generation(); got < uint64(reloads) {
		t.Errorf("generation = %d after %d reloads", got, reloads)
	}
}
