package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compare reads the untraced result files of a parent's runs and a
// change's runs, separated by "--" and each listed in the order they
// ran (paired by position, so alternate them), and prints one row per
// (workload, end-to-end metric) with both sides' medians and quartiles,
// the share of pairs the change won, and a verdict under the metric's
// bound from BENCHMARK.json.
func compare(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	split := -1
	for i, f := range files {
		if f == "--" {
			split = i
		}
	}
	if split < 1 || split == len(files)-1 {
		return errors.New("usage: compare [-bench BENCHMARK.json] PARENT.json... -- CHANGE.json...")
	}
	var bench struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(*benchPath, &bench); err != nil {
		return err
	}
	parent, err := loadResults(files[:split])
	if err != nil {
		return err
	}
	change, err := loadResults(files[split+1:])
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return errors.New("no workload has untraced runs on both sides")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict")
	for _, name := range names {
		for _, b := range bench.EndToEnd {
			p, c := values(parent[name], b.Name), values(change[name], b.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			wins, v := verdict(p, c, b)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\n",
				name, b.Name, pm, pq1, pq3, cm, cq1, cq3, 100*ratio(cm-pm, math.Abs(pm)), 100*wins, v)
		}
	}
	return tw.Flush()
}

// verdict applies the rule of the choosing-metrics guide: the change
// improved a metric when it wins at least nine tenths of the pairs
// (ties count for neither) and the medians differ, in its favour, by
// more than the parent's spread between quartiles; it is worse when its
// median is worse than the parent's by more than the bound; when the
// parent's spread is wider than the bound the metric is unresolved,
// unless every run of the change reads better than every run of the
// parent; otherwise it is unchanged.
func verdict(p, c []float64, b bound) (wins float64, v string) {
	better := func(x, y float64) bool {
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	n := min(len(p), len(c))
	won := 0
	for i := 0; i < n; i++ {
		if better(c[i], p[i]) {
			won++
		}
	}
	wins = float64(won) / float64(n)
	pq1, pm, pq3 := quartiles(p)
	_, cm, _ := quartiles(c)
	worseBy := ratio(cm-pm, math.Abs(pm))
	if b.Better == "higher" {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case wins >= 0.9 && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		return wins, "improved"
	case worseBy > b.Bound:
		return wins, "worse"
	case pq3-pq1 > b.Bound*math.Abs(pm) && !allBetter:
		return wins, "unresolved"
	}
	return wins, "unchanged"
}

// loadResults reads result files and groups the untraced ones by
// workload, keeping the order given.
func loadResults(paths []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range paths {
		var r result
		if err := readJSON(p, &r); err != nil {
			return nil, err
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, nil
}

func values(rs []*result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
