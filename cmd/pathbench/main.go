// Command pathbench is the repository's benchmark. For each workload it
// boots an in-process pathcomplete server on a loopback listener,
// drives it from the same process at GOMAXPROCS=2 with at most two
// client connections, checks the answers, and prints every metric as
// "workload metric value unit", then one JSON line with the metrics
// BENCHMARK.json names. It is a module of its own; cmd/pathbench/run.sh
// builds and runs it from the repository root:
//
//	bash cmd/pathbench/run.sh --workload typeahead --seed 1 --seconds 20 --trace 0
//	bash cmd/pathbench/run.sh --seed 1 --trace 1
//	bash cmd/pathbench/run.sh compare P1.json P2.json -- C1.json C2.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// metrics and a span file. Every run also writes its full result to
// --out. README.md describes the workloads, metrics and bounds.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pathcomplete/internal/schema"
)

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	setups int // least set-ups per run; setup_s is their median
	trace  bool
	out    string
	small  bool // every workload on cupid32 (the smoke test)
}

const (
	// setupBudget and maxSetups bound the extra set-ups of a workload
	// whose set-up takes milliseconds.
	setupBudget = 500 * time.Millisecond
	maxSetups   = 101
)

func main() {
	runtime.GOMAXPROCS(clients)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pathbench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pathbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: typeahead, cold_search, sessions, reload, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	out := fs.String("out", filepath.Join(".bench_build", "pathbench"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pathbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		warmup: 2 * time.Second,
		setups: 5,
		trace:  *trace == 1,
		out:    *out,
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "pathbench: unknown workload %q\n", *name)
		return 2
	}
	results, err := runAll(todo, cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := summarize(results, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runAll runs each workload in turn, printing its metrics to stdout
// and writing its result file.
func runAll(todo []*workload, cfg config, stdout io.Writer) ([]*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	var results []*result
	for _, w := range todo {
		res, err := runOne(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(stdout)
		if err := writeResult(resultPath(cfg, w.name), res); err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

func resultPath(cfg config, name string) string {
	mode := 0
	if cfg.trace {
		mode = 1
	}
	return filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, mode))
}

func spanPath(cfg config, name string) string {
	return filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.json", name, cfg.seed))
}

// runner is one run of one workload.
type runner struct {
	w          *workload
	cfg        config
	in         *inputs
	inst       *instance
	hc         *http.Client
	schemasDir string
	win        window
	res        *result
	// gens maps every generation the server answered from to the
	// schema it served; while the load runs only the reload goroutine
	// writes it.
	gens map[uint64]*schema.Schema
}

// runOne generates the workload's inputs, sets the server up at least
// cfg.setups times, and measures the last set-up.
func runOne(w *workload, cfg config) (*result, error) {
	in, err := makeInputs(w, cfg)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	schemasDir, dataDir := filepath.Join(dir, "schemas"), filepath.Join(dir, "data")
	if err := os.MkdirAll(schemasDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(schemasDir, in.spec.name+".sdl"), []byte(in.sdl), 0o644); err != nil {
		return nil, err
	}
	res := newResult(w.name, cfg.seed, cfg.trace)
	res.InputsSHA = in.sha
	hc := newClient()
	defer hc.CloseIdleConnections()
	if w.persist {
		// The data dir the set-ups restore from is built outside the
		// timed set-up.
		inst, _, err := boot(w, schemasDir, dataDir, hc)
		if err != nil {
			return nil, err
		}
		err = settlePersist(inst)
		inst.shutdown()
		if err != nil {
			return nil, err
		}
	}
	// A cheap set-up is repeated until setupBudget has passed, so its
	// median rests on enough samples to be steady.
	var inst *instance
	var setups []float64
	for spent := 0.0; len(setups) < cfg.setups || (spent < setupBudget.Seconds() && len(setups) < maxSetups); {
		if inst != nil {
			inst.shutdown()
			hc.CloseIdleConnections()
		}
		var d time.Duration
		if inst, d, err = boot(w, schemasDir, dataDir, hc); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d.Seconds()
	}
	res.set("setup_runs", float64(len(setups)), "count")
	_, setup, _ := quartiles(setups)
	res.set("setup_s", setup, "s")
	ix, gen := inst.index()
	switch {
	case ix != nil && ix.Restored():
		res.set("persist.restore_ms", ms(ix.BuildDuration()), "ms")
	case ix != nil:
		res.set("closure.build_s", ix.BuildDuration().Seconds(), "s")
	}
	r := &runner{w: w, cfg: cfg, in: in, inst: inst, hc: hc, schemasDir: schemasDir, res: res,
		gens: map[uint64]*schema.Schema{gen: in.s}}
	err = r.measure()
	if r.inst != nil {
		r.inst.shutdown()
	}
	return res, err
}

// settlePersist waits until the served generation's closure is warm
// and durably saved.
func settlePersist(in *instance) error {
	_, gen := in.index()
	if err := in.waitClosure(gen); err != nil {
		return err
	}
	name := in.reg.DefaultName()
	if err := poll("warmed closure never saved", func() bool {
		saved, ok := in.ps.SavedGeneration(name)
		return ok && saved >= gen
	}); err != nil {
		return err
	}
	in.ps.Flush()
	return nil
}

// poll checks cond every millisecond until it holds, and fails with
// what once readyTimeout has passed.
func poll(what string, cond func() bool) error {
	deadline := time.Now().Add(readyTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New(what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// liveHeap returns the bytes of live heap objects after a full
// collection. HeapInuse, which counts whole spans, moved between 2.6 and
// 11.7 MB over reload runs whose live bytes differed by 2%.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC() // the second cycle also frees what sync.Pool victims held
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// edges is what the sampler read at the window's start and end.
type edges struct {
	before, after map[string]float64
	m0, m1        runtime.MemStats
}

func (e *edges) delta(metric string) float64 { return e.after[metric] - e.before[metric] }

// measure runs the warm-up and the window, the probes, the replay, and
// the correctness gate, and fills r.res.
func (r *runner) measure() error {
	runtime.GC() // leave the throwaway set-ups' garbage out of the window
	t0 := time.Now()
	r.win = window{start: t0.Add(r.cfg.warmup), end: t0.Add(r.cfg.warmup + r.cfg.window), trace: r.cfg.trace}

	var ed edges
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		time.Sleep(time.Until(r.win.start))
		ed.before = r.inst.scrape()
		runtime.ReadMemStats(&ed.m0)
		time.Sleep(time.Until(r.win.end))
		ed.after = r.inst.scrape()
		runtime.ReadMemStats(&ed.m1)
	}()

	rl := &reloadLog{}
	ctx, stopReloads := context.WithCancel(context.Background())
	var reloads sync.WaitGroup
	if r.w.reloads {
		reloads.Add(1)
		go func() {
			defer reloads.Done()
			r.reloadLoop(ctx, rl)
		}()
	}
	logs := make([]*opLog, clients)
	var sessions []*sessionLog
	var load sync.WaitGroup
	for i := 0; i < clients; i++ {
		load.Add(1)
		if r.w.sessions {
			sl := &sessionLog{}
			sessions, logs[i] = append(sessions, sl), &sl.opLog
			go func(i int) {
				defer load.Done()
				r.session(i, t0, sl)
			}(i)
			continue
		}
		logs[i] = &opLog{rng: rand.New(rand.NewSource(r.cfg.seed + int64(i)))}
		go func(i int) {
			defer load.Done()
			r.closedLoop(i, logs[i])
		}(i)
	}
	load.Wait()
	stopReloads()
	reloads.Wait()
	sampler.Wait()
	if err := r.settle(rl); err != nil {
		return err
	}
	loadedHeap := liveHeap()

	probes, probeOps := r.sendProbes()
	logs = append(logs, probes)
	for _, l := range logs {
		r.res.Attempted += l.ops
		r.res.Failed += l.failed
	}
	r.res.Attempted += rl.ops
	r.res.Failed += rl.failed

	r.endToEnd(logs, rl)
	if r.cfg.trace {
		if err := r.perLayer(logs, sessions, probeOps, rl, &ed); err != nil {
			return err
		}
	}
	closureMB := 0.0
	if ix, _ := r.inst.index(); ix != nil {
		closureMB = float64(ix.Bytes()) / 1e6
	}
	r.res.set("closure.bytes_mb", closureMB, "MB")
	r.inst.shutdown()
	r.inst = nil
	r.hc.CloseIdleConnections()
	// What the server holds after the load: the heap then, minus the
	// heap once the server is gone. The benchmark's own records are
	// alive in both.
	r.res.set("heap_mb", (loadedHeap-liveHeap())/1e6, "MB")

	r.check(logs, sessions)
	r.res.set("error_ratio", ratio(float64(r.res.Failed), float64(r.res.Attempted)), "ratio")
	for _, l := range logs {
		for _, n := range l.notes {
			fmt.Fprintf(os.Stderr, "%s: failed: %s\n", r.w.name, n)
		}
	}
	for _, n := range rl.notes {
		fmt.Fprintf(os.Stderr, "%s: failed: %s\n", r.w.name, n)
	}
	return nil
}

// settle brings the server to one state once the load has stopped,
// whichever phase the window ended in, so the heap is read in that
// state: no session open, no closure build in flight, and on reload the
// full schema served from a full rebuild with an empty memo (at the
// window's end a reload may hold two indexes).
func (r *runner) settle(rl *reloadLog) error {
	if r.w.sessions {
		if err := poll("sessions still open after the load", func() bool {
			return r.inst.scrape()["pathcomplete_sessions_open"] == 0
		}); err != nil {
			return err
		}
	}
	if r.w.reloads {
		var buf bytes.Buffer
		if !rl.dropped {
			if _, _, err := r.reload(context.Background(), &buf, rl, r.in.dropped, r.in.droppedS); err != nil {
				return err
			}
		}
		// Once the dropped schema is saved, the restore below rebuilds
		// the closure. Were the older full-schema snapshot still on disk,
		// the server would restore that instead, and its Completer would
		// lack the 4.6 MB of compiled patterns a rebuild leaves.
		if err := settlePersist(r.inst); err != nil {
			return err
		}
		if _, _, err := r.reload(context.Background(), &buf, rl, r.in.sdl, r.in.s); err != nil {
			return err
		}
	}
	if r.w.persist {
		return settlePersist(r.inst)
	}
	return nil
}

// sendProbes sends the fixed probe set once, sequentially. Every probe
// is checked and, in a traced run, replayed.
func (r *runner) sendProbes() (*opLog, []tracedOp) {
	l := &opLog{}
	var ops []tracedOp
	var buf bytes.Buffer
	for _, q := range r.in.probes {
		start := time.Now()
		status, body, err := post(r.hc, &buf, r.inst.url+"/v1/complete", q.body)
		l.ops++
		if err != nil || status != http.StatusOK {
			l.fail("probe %s: HTTP %d %v %.200s", q.expr, status, err, body)
			continue
		}
		body = append([]byte(nil), body...)
		l.checks = append(l.checks, check{q, body})
		ops = append(ops, tracedOp{q, start, time.Now(), body})
	}
	return l, ops
}

// check runs the correctness gate over the sampled answers, the
// probes, and every session final of the window.
func (r *runner) check(logs []*opLog, sessions []*sessionLog) {
	c := newChecker(r.w.opts, r.gens)
	for _, l := range logs {
		for _, ck := range l.checks {
			c.rest(ck.q, ck.body)
		}
	}
	for _, sl := range sessions {
		for _, f := range sl.finals {
			if f.window {
				c.final(f.frame, sl.gen)
			}
		}
	}
	r.res.set("check.answers", float64(c.checked), "count")
	r.res.set("check.naive_agree", float64(c.naiveAgree), "count")
	r.res.set("check.naive_differ", float64(c.naiveDiffer), "count")
	r.res.set("check.naive_skipped", float64(c.naiveSkipped), "count")
	r.res.set("check.wrong", float64(c.wrong), "count")
	r.res.Failed += c.wrong
	r.res.Correct = c.wrong == 0
	for _, n := range c.notes {
		fmt.Fprintf(os.Stderr, "%s: wrong answer: %s\n", r.w.name, n)
	}
}
