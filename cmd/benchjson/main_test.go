package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pathcomplete
cpu: Example CPU @ 2.0GHz
BenchmarkUniversityTaName/paper-8         	  226455	      5239 ns/op	    4376 B/op	      52 allocs/op
BenchmarkFigure5-8	     100	   1017000 ns/op	        0.950 recall	        0.600 precision
PASS
ok  	pathcomplete	12.3s
`

func TestParse(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Errorf("header parsed wrong: %+v", doc)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("want 2 results, got %d: %+v", len(doc.Results), doc.Results)
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkUniversityTaName/paper" || r.Pkg != "pathcomplete" || r.Runs != 226455 ||
		r.NsPerOp != 5239 || r.BPerOp != 4376 || r.Allocs != 52 {
		t.Errorf("row 0 parsed wrong: %+v", r)
	}
	f := doc.Results[1]
	if f.Name != "BenchmarkFigure5" || f.Metrics["recall"] != 0.950 || f.Metrics["precision"] != 0.600 {
		t.Errorf("row 1 parsed wrong: %+v", f)
	}
}

// TestParseTwoPackages: `make bench` concatenates several go test runs;
// each record keeps the package of the run it came from.
func TestParseTwoPackages(t *testing.T) {
	two := sample + `goos: linux
goarch: amd64
pkg: pathcomplete/internal/core
cpu: Example CPU @ 2.0GHz
BenchmarkTracerOverhead/nil-8	  100000	     10500 ns/op	    3848 B/op	      65 allocs/op
PASS
ok  	pathcomplete/internal/core	3.1s
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(two)))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pathcomplete", "pathcomplete", "pathcomplete/internal/core"}
	if len(doc.Results) != len(want) {
		t.Fatalf("want %d results, got %d: %+v", len(want), len(doc.Results), doc.Results)
	}
	for i, r := range doc.Results {
		if r.Pkg != want[i] {
			t.Errorf("%s: pkg = %q, want %q", r.Name, r.Pkg, want[i])
		}
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader("=== RUN TestX\n--- PASS: TestX\nrandom text\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Errorf("want no results, got %+v", doc.Results)
	}
}
