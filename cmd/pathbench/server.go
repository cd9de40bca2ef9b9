package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/registry"
	"pathcomplete/internal/server"
)

// readyTimeout bounds every wait for the server to become ready.
const readyTimeout = 60 * time.Second

// instance is one in-process server on a loopback listener.
type instance struct {
	w      *workload
	reg    *registry.Registry
	sv     *server.Server
	ps     *persist.Store // nil unless the workload persists
	hs     *http.Server
	url    string
	served chan struct{} // closed when Serve has returned
}

// boot assembles a server over the schemas directory the way pathserve
// -schemas-dir does, with the workload's engine preset, and returns once it
// is ready: /readyz answers 200 and, when the workload warms one, the
// closure index is ready. The duration is the set-up time: from handing
// the schema to the server until it is ready.
func boot(w *workload, schemasDir, dataDir string, hc *http.Client) (*instance, time.Duration, error) {
	start := time.Now()
	reg := registry.New(w.opts)
	if err := reg.LoadDir(schemasDir); err != nil {
		return nil, 0, err
	}
	sv := server.NewFromRegistry(reg)
	if w.sessions {
		// Debounce off: keystroke latency measures the serving path, not
		// a fixed settle timer.
		sv.SetLimits(server.Limits{SessionDebounce: -1})
	}
	in := &instance{w: w, reg: reg, sv: sv, served: make(chan struct{})}
	if w.persist {
		ps, err := persist.Open(dataDir)
		if err != nil {
			return nil, 0, err
		}
		reg.EnablePersist(ps)
		sv.AttachPersist()
		in.ps = ps
	}
	if w.closure {
		sv.EnableClosure(1, 256<<20)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.cancelClosures()
		return nil, 0, err
	}
	in.url = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: sv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // always ErrServerClosed after shutdown
	}()
	if err := in.waitReady(hc); err != nil {
		in.shutdown()
		return nil, 0, err
	}
	return in, time.Since(start), nil
}

// waitReady polls /readyz over the listener, then the closure state.
func (in *instance) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := hc.Get(in.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (last error %v)", readyTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
	if !in.w.closure {
		return nil
	}
	return in.waitClosure(0)
}

// waitClosure waits until the default schema is served at generation
// gen or later with its closure index ready.
func (in *instance) waitClosure(gen uint64) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		ready, err := in.closureReady(gen)
		if ready || err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("closure not ready after %v", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (in *instance) closureReady(gen uint64) (bool, error) {
	sn, err := in.reg.Acquire("")
	if err != nil {
		return false, err
	}
	defer sn.Release()
	if sn.Generation() < gen {
		return false, nil
	}
	st := sn.ClosureStatus()
	switch st.State {
	case closure.StateReady:
		return true, nil
	case closure.StateDisabled:
		return false, errors.New("closure disabled: " + st.Reason)
	}
	return false, nil
}

// index returns the served snapshot's closure index (nil when none is
// ready) and the snapshot's generation.
func (in *instance) index() (*closure.Index, uint64) {
	sn, err := in.reg.Acquire("")
	if err != nil {
		return nil, 0
	}
	defer sn.Release()
	return sn.Closure().Index(), sn.Generation()
}

// cancelClosures stops every closure build and waits for it to exit.
func (in *instance) cancelClosures() {
	for _, name := range in.reg.Names() {
		sn, err := in.reg.Acquire(name)
		if err != nil {
			continue
		}
		h := sn.Closure()
		h.Cancel()
		<-h.Done()
		sn.Release()
	}
}

// shutdown closes the listener and every connection, stops closure
// builds, and waits for pending durable saves.
func (in *instance) shutdown() {
	if in.hs != nil {
		in.hs.Close()
		<-in.served
	}
	in.cancelClosures()
	if in.ps != nil {
		in.ps.Flush()
	}
}

// scrape reads the server's metrics registry in process (no client
// connection), summing each metric over its label sets.
func (in *instance) scrape() map[string]float64 {
	var buf bytes.Buffer
	_ = in.sv.Registry().WriteText(&buf) // a bytes.Buffer write cannot fail
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// newClient returns the load generator's HTTP client: at most clients
// connections to the server, kept alive.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}
