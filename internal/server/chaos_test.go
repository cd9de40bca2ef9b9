package server

// Chaos test: the full handler stack is hammered by concurrent clients
// while the fault-injection switchboard randomly delays, errors, and
// panics at the server and store injection points. The assertions are
// the robustness contract, not the answers: every response the clients
// observe is well-formed JSON with an expected status, no panic escapes
// the process, no admission slot leaks, the HTTP request counter agrees
// exactly with what the clients saw, and scraped metrics are monotone
// throughout. Run it under -race (make race / CI) for the full effect.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/faultinject"
	"pathcomplete/internal/uni"
)

// chaosStatusOK lists every status the hardened path may legitimately
// answer under fault injection.
var chaosStatusOK = map[int]bool{
	http.StatusOK:                  true,
	http.StatusBadRequest:          true, // invalid requests in the mix
	http.StatusUnprocessableEntity: true, // unresolvable expressions
	http.StatusTooManyRequests:     true, // admission shed
	http.StatusServiceUnavailable:  true, // queue wait ended
	http.StatusInternalServerError: true, // injected errors and panics
}

// sumRequestsTotal adds up http_requests_total across all label sets
// whose path is one of the POST endpoints.
func sumRequestsTotal(text string) int {
	total := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `http_requests_total{`) {
			continue
		}
		if !strings.Contains(line, `path="/v1/complete"`) && !strings.Contains(line, `path="/v1/evaluate"`) {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err == nil {
			total += v
		}
	}
	return total
}

func TestChaosHandlerUnderFaultInjection(t *testing.T) {
	if err := faultinject.ArmSpec("delay=0.3,maxdelay=2ms,error=0.15,panic=0.05,seed=7"); err != nil {
		t.Fatalf("ArmSpec: %v", err)
	}
	defer faultinject.Disarm()

	st := uni.SampleStore()
	sv := New(st.Schema(), st, core.Exact())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	const (
		clients  = 8
		perEach  = 40
		deadline = 2 * time.Minute
	)
	// The request mix: valid completions (some cacheable, some traced,
	// some tightly bounded), evaluations, and malformed requests.
	type reqSpec struct{ path, body string }
	mix := []reqSpec{
		{"/v1/complete", `{"expr":"ta~name"}`},
		{"/v1/complete", `{"expr":"ta~credits"}`},
		{"/v1/complete", `{"expr":"student~name","trace":true}`},
		{"/v1/complete", `{"expr":"department~name","timeoutMs":5}`},
		{"/v1/complete", `{"expr":"ta..name"}`},        // unparsable: 400
		{"/v1/complete", `{"expr":`},                   // malformed JSON: 400
		{"/v1/evaluate", `{"expr":"student~credits"}`}, // store-backed: hits store.eval
		{"/v1/evaluate", `{"expr":"department~name"}`}, // store-backed
		{"/v1/complete", `{"expr":"university~name"}`}, // cacheable
		{"/v1/complete", `{"expr":"professor~name","e":3}`},
	}

	var (
		observed   atomic.Uint64 // responses the clients actually received
		statusBad  atomic.Uint64
		bodyBroken atomic.Uint64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perEach; i++ {
				spec := mix[(c+i)%len(mix)]
				resp, err := client.Post(ts.URL+spec.path, "application/json", strings.NewReader(spec.body))
				if err != nil {
					// A transport-level failure would mean a panic escaped
					// into the connection — exactly what must not happen.
					t.Errorf("client %d: transport error: %v", c, err)
					return
				}
				var buf bytes.Buffer
				_, rerr := buf.ReadFrom(resp.Body)
				resp.Body.Close()
				observed.Add(1)
				if rerr != nil {
					bodyBroken.Add(1)
					t.Errorf("client %d: body read: %v", c, rerr)
					continue
				}
				if !chaosStatusOK[resp.StatusCode] {
					statusBad.Add(1)
					t.Errorf("client %d: unexpected status %d: %s", c, resp.StatusCode, buf.String())
					continue
				}
				var m map[string]any
				if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
					bodyBroken.Add(1)
					t.Errorf("client %d: corrupted %d response: %v\n%s", c, resp.StatusCode, err, buf.String())
				}
			}
		}(c)
	}

	// While the clients hammer, scrape /metrics concurrently and check
	// the counters only ever move forward.
	hammering := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		last := -1.0
		for {
			select {
			case <-hammering:
				return
			case <-time.After(20 * time.Millisecond):
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("scrape status = %d", resp.StatusCode)
			}
			v := metricValue(buf.String(), "pathcomplete_searches_total")
			if v < last {
				t.Errorf("pathcomplete_searches_total went backwards: %g after %g", v, last)
			}
			last = v
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("chaos run deadlocked: %d/%d responses after %v",
			observed.Load(), clients*perEach, deadline)
	}
	close(hammering)
	<-scrapeDone
	faultinject.Disarm()

	if got := observed.Load(); got != clients*perEach {
		t.Errorf("clients observed %d responses, want %d", got, clients*perEach)
	}

	// The faults really fired.
	snap := faultinject.Snapshot()
	if snap.Visited == 0 || snap.Delays+snap.Errors+snap.Panics == 0 {
		t.Errorf("fault injection never fired: %+v", snap)
	}
	// Every injected panic was absorbed by the recovery middleware.
	if got := sv.met.panicsRecovered.Value(); got != snap.Panics {
		t.Errorf("panicsRecovered = %d, injected panics = %d", got, snap.Panics)
	}

	// No admission slot leaked and the gauge settled.
	if n := sv.gate.inFlight(); n != 0 {
		t.Errorf("admission slots leaked: %d still held", n)
	}
	if n := sv.gate.queued(); n != 0 {
		t.Errorf("admission queue not drained: %d waiters", n)
	}
	if v := sv.met.inflight.Value(); v != 0 {
		t.Errorf("inflight gauge = %d after the run", v)
	}

	// The server's request accounting agrees exactly with what the
	// clients saw (read off the registry directly: no extra scrape).
	var buf bytes.Buffer
	if err := sv.metReg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if got := sumRequestsTotal(buf.String()); got != clients*perEach {
		t.Errorf("http_requests_total over POST endpoints = %d, clients observed %d", got, clients*perEach)
	}

	// The process is still healthy: a clean request succeeds.
	resp, body := post(t, ts.URL+"/v1/complete", `{"expr":"ta~name"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-chaos request: status = %d (body %s)", resp.StatusCode, body)
	}
}
