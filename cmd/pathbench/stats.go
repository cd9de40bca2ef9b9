package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric the benchmark reports and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports on its last line:
// what a user of the server sees. BENCHMARK.json lists the same names
// with their bounds; the smoke test keeps the two in step.
var endToEnd = []metricDef{
	{"throughput_qps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports on its last line. Every
// workload reports every one of them: a time is listed only when every
// workload exercises its layer (the fixed probe set guarantees the
// kernel, core.New and gapre samples), while a layer that only some
// workloads reach is listed as a count or ratio, which is 0 where the
// layer is idle. Workload-specific times are printed and written to the
// result file as extras.
var perLayer = []metricDef{
	{"server.unattributed_us_p50", "us"},
	{"server.encode_us_p50", "us"},
	{"server.memo_hit_ratio", "ratio"},
	{"server.singleflight_shared", "count"},
	{"server.sheds", "count"},
	{"pathexpr.parse_us_p50", "us"},
	{"gapre.compile_us_p50", "us"},
	{"core.new_us_p50", "us"},
	{"core.complete_us_p50", "us"},
	{"core.complete_us_p99", "us"},
	{"core.calls_per_query", "count"},
	{"core.offers_per_query", "count"},
	{"core.pruned_ratio", "ratio"},
	{"closure.hit_ratio", "ratio"},
	{"closure.bytes_mb", "MB"},
	{"closure.reused_ratio", "ratio"},
	{"session.reused_ratio", "ratio"},
	{"session.calls_per_update", "count"},
	{"session.skipped_ratio", "ratio"},
	{"persist.saves", "count"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload measured. The result
// file holds all of it; the last stdout line holds the BENCHMARK.json
// subset for the run's mode.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	InputsSHA string                 `json:"inputs_sha"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []string // metric names in the order they were set
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Trace: trace, Correct: true,
		Metrics: map[string]metricValue{}}
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// print writes every metric as "workload metric value unit".
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s inputs_sha %s sha256\n", r.Workload, r.InputsSHA)
	fmt.Fprintf(w, "%s attempted %d count\n", r.Workload, r.Attempted)
	fmt.Fprintf(w, "%s failed %d count\n", r.Workload, r.Failed)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, name, m.Value, m.Unit)
	}
}

// summary is the last stdout line: exactly the keys the benchmark
// contract names.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize folds the results of one invocation into the last line.
// With one workload the metric names are bare; with several each is
// prefixed by its workload.
func summarize(rs []*result, defs []metricDef) ([]byte, error) {
	out := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				return nil, fmt.Errorf("%s: metric %s missing or not in %s", r.Workload, d.name, d.unit)
			}
			key := d.name
			if len(rs) > 1 {
				key = r.Workload + "/" + d.name
			}
			out.Metrics[key] = m
		}
	}
	return json.Marshal(out)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) and statistics.median do,
// so compare reports the spreads the benchmark's acceptance check
// computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
