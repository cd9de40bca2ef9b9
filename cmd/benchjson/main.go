// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON document on stdout:
//
//	go test -bench='UniversityTaName|SchemaScaling' -benchmem -run xxx . | benchjson > BENCH_core.json
//
// Each benchmark line becomes one record with the standard metrics
// (ns/op, B/op, allocs/op) plus any custom b.ReportMetric columns
// (e.g. the figure benches' recall/precision/answers). Non-benchmark
// lines are ignored, so the tool can be fed the raw `go test` stream,
// several runs concatenated included: each record carries the package
// of the `pkg:` header in force when its line was read. The JSON
// carries enough context (goos/goarch/cpu when present) to compare
// runs across machines.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// record is one benchmark result row.
type record struct {
	Name    string             `json:"name"`
	Pkg     string             `json:"pkg,omitempty"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op,omitempty"`
	BPerOp  float64            `json:"bytes_per_op,omitempty"`
	Allocs  float64            `json:"allocs_per_op,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// document is the full output: environment header + rows.
type document struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []record `json:"results"`
}

func main() {
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: warning: no benchmark lines found in input")
	}
}

func parse(sc *bufio.Scanner) (*document, error) {
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	doc := &document{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBench(line)
			if ok {
				r.Pkg = pkg
				doc.Results = append(doc.Results, r)
			}
		}
	}
	return doc, sc.Err()
}

// parseBench parses one result line of the form
//
//	BenchmarkName-8   1234   5678 ns/op   910 B/op   11 allocs/op   0.95 recall
//
// into a record. Unknown units land in Metrics.
func parseBench(line string) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return record{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix; it is machine detail, and the
		// cpu header already records the machine.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: name, Runs: runs}
	// The rest alternates value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.Allocs = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}
