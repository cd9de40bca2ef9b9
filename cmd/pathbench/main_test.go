package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must honor.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSON("../../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func defsOf(bs []bound) []metricDef {
	var out []metricDef
	for _, b := range bs {
		out = append(out, metricDef{b.Name, b.Unit})
	}
	return out
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the workload and
// metric tables of this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if got := defsOf(b.EndToEnd); fmt.Sprint(got) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, endToEnd)
	}
	if got := defsOf(b.PerLayer); fmt.Sprint(got) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, perLayer)
	}
}

// TestSmoke runs every workload for a second on cupid32 with tracing
// on, so the benchmark cannot rot unnoticed: every metric BENCHMARK.json
// names is printed with its unit, nothing fails, every answer checked
// is right, and every span's parent is in the span file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	cfg := config{seed: 1, window: time.Second, warmup: 200 * time.Millisecond, setups: 1,
		trace: true, out: t.TempDir(), small: true}
	var stdout bytes.Buffer
	results, err := runAll(workloads, cfg, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	printed := stdout.String()
	for _, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d operations failed", r.Workload, r.Correct, r.Failed, r.Attempted)
		}
		if v := r.Metrics["error_ratio"].Value; v != 0 {
			t.Errorf("%s: error_ratio %v", r.Workload, v)
		}
		// A traced run prints the end-to-end metrics too.
		for _, d := range append(defsOf(b.EndToEnd), defsOf(b.PerLayer)...) {
			prefix := r.Workload + " " + d.name + " "
			found := false
			for _, line := range strings.Split(printed, "\n") {
				if strings.HasPrefix(line, prefix) && strings.HasSuffix(line, " "+d.unit) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no line %q...%q", r.Workload, prefix, d.unit)
			}
		}

		var file struct {
			Spans []span `json:"spans"`
		}
		if err := readJSON(spanPath(cfg, r.Workload), &file); err != nil {
			t.Fatal(err)
		}
		if len(file.Spans) == 0 {
			t.Errorf("%s: empty span file", r.Workload)
		}
		byID := map[uint64]span{}
		for _, s := range file.Spans {
			byID[s.ID] = s
		}
		for _, s := range file.Spans {
			if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.Trace != s.Trace) {
				t.Errorf("%s: span %d (%s) has no parent %d in its trace", r.Workload, s.ID, s.Name, s.Parent)
			}
		}
	}
}

// TestInputsDeterministic: the same seed generates the same requests,
// another seed others.
func TestInputsDeterministic(t *testing.T) {
	cfg := func(seed int64) config { return config{seed: seed, warmup: 2 * time.Second, window: 20 * time.Second} }
	for _, w := range workloads {
		a, err := makeInputs(w, cfg(1))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, cfg(1))
		c, _ := makeInputs(w, cfg(2))
		if a.sha != b.sha {
			t.Errorf("%s: seed 1 gave inputs_sha %s, then %s", w.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs_sha %s", w.name, a.sha)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4)
// and statistics.median, which the benchmark's acceptance check uses.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 40, 20, 30}, 12.5, 25, 37.5},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "throughput_qps", Better: "higher", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		change []float64
		b      bound
		want   string
	}{
		{"same", []float64{100, 99, 101, 100, 101, 99, 100, 100, 102, 98}, lower, "unchanged"},
		{"faster", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, lower, "improved"},
		{"slower", []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, lower, "worse"},
		{"more throughput", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, higher, "improved"},
		{"less throughput", []float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85}, higher, "worse"},
	} {
		if _, got := verdict(parent, tc.change, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if _, got := verdict(noisy, noisy, lower); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", got)
	}
}
