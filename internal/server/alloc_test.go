package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
)

// discardWriter is a ResponseWriter that keeps the status and drops
// the body, so an allocation count covers the server and not a
// recorder's buffer.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.status = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// TestCompleteHotPathAllocs guards the two answers that dominate an
// interactive /v1/complete loop, a closure hit and a memo hit, through
// the whole handler chain: middleware, decode, resolve, the completion
// view and the envelope encode. It runs on the benchmark's cupid48
// schema under paper with the closure ready. The lanes read 56 and 57
// allocs/op with the pooled compact encode and the one-pass path
// render, 153 and 122 with an indented, unpooled encode and a per-step
// render. Under -race, sync.Pool drops some of its Puts (61 and 62),
// which the bound absorbs.
func TestCompleteHotPathAllocs(t *testing.T) {
	const bound = 70
	w, err := cupid.Generate(cupid.Config{Seed: 1994, Classes: 48, RelPairs: 96, Hubs: 2, HubFanout: 6})
	if err != nil {
		t.Fatal(err)
	}
	sv := New(w.Schema, nil, core.Paper())
	sv.EnableClosure(1, 1<<30)
	h := sv.Handler()
	if st := waitClosure(t, sv, ""); st.State != closure.StateReady {
		t.Fatalf("closure = %+v, want ready", st)
	}
	// One request, its body rewound before each send: the count is the
	// server's, not the cost of building a request (net/http's own
	// connection reader does that outside any handler).
	br := strings.NewReader("")
	r, err := http.NewRequest(http.MethodPost, "/v1/complete", io.NopCloser(br))
	if err != nil {
		t.Fatal(err)
	}
	send := func(body string) *discardWriter {
		br.Reset(body)
		dw := &discardWriter{h: http.Header{}}
		h.ServeHTTP(dw, r)
		return dw
	}
	for _, tc := range []struct {
		name, expr string
		hits       func() uint64
	}{
		// Five completions, straight from the all-pairs index.
		{"closure", "experiment~entry_1_1", sv.met.closureHits.Value},
		// Two gaps bypass the closure; the first request fills the memo.
		{"memo", "experiment~output_set~entry_1_1", sv.met.cacheHits.Value},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := `{"expr":"` + tc.expr + `"}`
			for i := 0; i < 3; i++ { // fill the memo and the pools
				if dw := send(body); dw.status != http.StatusOK {
					t.Fatalf("status = %d", dw.status)
				}
			}
			before := tc.hits()
			got := testing.AllocsPerRun(100, func() { send(body) })
			if tc.hits() == before {
				t.Fatalf("no %s hit while measuring", tc.name)
			}
			if got > bound {
				t.Errorf("%s hit allocates %.0f/op, want <= %d (envelope encode or path render regression?)", tc.name, got, bound)
			}
			t.Logf("%s hit: %.0f allocs/op", tc.name, got)
		})
	}
}
