package pathcomplete_test

// One benchmark per exhibit of the paper's evaluation (see DESIGN.md
// §5), plus ablations of the design choices Algorithm 2 relies on.
// Figure-level benches report the paper's own metrics (recall,
// precision, answers, traverse calls) via b.ReportMetric, so
//
//	go test -bench=Figure -benchmem
//
// regenerates the numbers behind Figures 5–7 alongside the time/op.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/connector"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/experiment"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/server"
	"pathcomplete/internal/uni"
)

// Shared CUPID-scale fixtures, built once.
var (
	fixtureOnce sync.Once
	fixtureW    *cupid.Workload
	fixtureR    *experiment.Runner
	fixtureErr  error
)

func fixtures(b *testing.B) (*cupid.Workload, *experiment.Runner) {
	b.Helper()
	fixtureOnce.Do(func() {
		fixtureW, fixtureErr = cupid.Generate(cupid.DefaultConfig())
		if fixtureErr != nil {
			return
		}
		fixtureR, fixtureErr = experiment.NewRunner(fixtureW, 42, 10)
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureW, fixtureR
}

// BenchmarkTable1ConC measures the CON_c connector composition (Table
// 1): all 196 pairs per iteration.
func BenchmarkTable1ConC(b *testing.B) {
	cs := connector.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, x := range cs {
			for _, y := range cs {
				_ = connector.Con(x, y)
			}
		}
	}
}

// BenchmarkLabelCon measures whole-path label composition with
// semantic-length bookkeeping.
func BenchmarkLabelCon(b *testing.B) {
	prims := connector.Primaries()
	edges := make([]label.Label, len(prims))
	for i, c := range prims {
		edges[i] = label.MustEdge(c)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := label.Identity()
		for k := 0; k < 15; k++ {
			l = label.Con(l, edges[k%len(edges)])
		}
		_ = l.Key()
	}
}

// BenchmarkAggStar measures the AGG* reduction on a mixed label set.
func BenchmarkAggStar(b *testing.B) {
	var ks []label.Key
	for _, c := range connector.All() {
		for f := 0; f < 5; f++ {
			ks = append(ks, label.Key{Conn: c, SemLen: f})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = label.AggStar(ks, 3)
	}
}

// BenchmarkUniversityTaName measures the paper's flagship completion
// on the Figure 2 schema.
func BenchmarkUniversityTaName(b *testing.B) {
	s := uni.New()
	e := pathexpr.MustParse("ta~name")
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"paper", core.Paper()},
		{"safe", core.Safe()},
		{"exact", core.Exact()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := core.New(s, tc.opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.Complete(e)
				if err != nil || len(res.Completions) != 2 {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkConstrainedTaName measures the annotated variants of the
// flagship query: a regex-constrained gap (the DFA product folded into
// the compiled traversal), a pushed-down predicate, and the degenerate
// .* constraint that must answer like the unconstrained query. The
// unconstrained lane rides along as the in-run baseline, so one run
// shows the cost of each gap annotation side by side.
func BenchmarkConstrainedTaName(b *testing.B) {
	s := uni.New()
	for _, tc := range []struct {
		name string
		expr string
		want int // expected completion count
	}{
		{"baseline", "ta~name", 2},
		{"regex", "ta~(grad.*)~name", 1},
		{"degenerate", "ta~(.*)~name", 2},
		{"predicate", `ta~name[self != "zz"]`, 2},
		{"composed", `ta~(grad.*)~name[self != "zz"]`, 1},
	} {
		e := pathexpr.MustParse(tc.expr)
		b.Run(tc.name, func(b *testing.B) {
			c := core.New(s, core.Exact())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := c.Complete(e)
				if err != nil || len(res.Completions) != tc.want {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkConstrainedScaling runs a constrained single-gap query on
// generated schemas of growing size — the regex product must scale
// with the traversal, not with the full class count.
func BenchmarkConstrainedScaling(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		w, err := cupid.Generate(cupid.Config{Classes: n, RelPairs: 2 * n, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		root, anchor := benchPick(b, w.Schema)
		e := pathexpr.MustParse(root + "~(.*)~" + anchor)
		b.Run(benchN(n), func(b *testing.B) {
			c := core.New(w.Schema, core.Exact())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Complete(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPick returns a deterministic non-primitive root and a rel-name
// anchor for the generated schema.
func benchPick(b *testing.B, s *schema.Schema) (root, anchor string) {
	b.Helper()
	for _, c := range s.Classes() {
		if !c.Primitive && root == "" {
			root = c.Name
		}
	}
	for _, r := range s.Rels() {
		if r.Conn != connector.CIsa {
			anchor = r.Name
			break
		}
	}
	if root == "" || anchor == "" {
		b.Fatal("no usable root/anchor in generated schema")
	}
	return root, anchor
}

// BenchmarkFigure5Recall regenerates the Figure 5 series: average
// recall at each E over the 10-query oracle workload. Recall is
// reported as a metric; the paper's value is ~0.90, flat in E.
func BenchmarkFigure5Recall(b *testing.B) {
	_, r := fixtures(b)
	for _, e := range []int{1, 2, 3, 4, 5} {
		b.Run(benchE(e), func(b *testing.B) {
			var pt experiment.EPoint
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = r.Point(e, false)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Recall, "recall")
			b.ReportMetric(pt.AvgAnswers, "answers")
		})
	}
}

// BenchmarkFigure6Precision regenerates the Figure 6 series: average
// precision at each E, domain independent and with the hub exclusions.
// The paper: 1.00 falling to ~0.55 without domain knowledge, staying
// ~0.93 with it.
func BenchmarkFigure6Precision(b *testing.B) {
	w, r := fixtures(b)
	for _, dk := range []bool{false, true} {
		name := "domain-independent"
		if dk {
			name = "domain-knowledge"
		}
		b.Run(name, func(b *testing.B) {
			for _, e := range []int{1, 5} {
				b.Run(benchE(e), func(b *testing.B) {
					opts := r.Base
					opts.E = e
					if dk {
						opts.Exclude = w.ExcludeHubs()
					}
					cmp := core.New(w.Schema, opts)
					var prec float64
					for i := 0; i < b.N; i++ {
						prec = 0
						for qi, q := range r.Queries {
							res, err := cmp.Complete(q.Expr)
							if err != nil {
								b.Fatal(err)
							}
							_, p := experiment.RecallPrecision(r.Truth(qi), res.Strings())
							prec += p
						}
						prec /= float64(len(r.Queries))
					}
					b.ReportMetric(prec, "precision")
				})
			}
		})
	}
}

// BenchmarkFigure7ResponseTime regenerates Figure 7: the ten oracle
// queries at E=5, reporting average traverse calls per query (the
// paper's complexity measure) alongside wall-clock time.
func BenchmarkFigure7ResponseTime(b *testing.B) {
	w, r := fixtures(b)
	opts := r.Base
	opts.E = 5
	cmp := core.New(w.Schema, opts)
	b.ReportAllocs()
	var calls int
	for i := 0; i < b.N; i++ {
		calls = 0
		for _, q := range r.Queries {
			res, err := cmp.Complete(q.Expr)
			if err != nil {
				b.Fatal(err)
			}
			calls += res.Stats.Calls
		}
	}
	b.ReportMetric(float64(calls)/float64(len(r.Queries)), "calls/query")
}

// BenchmarkEngineComparison compares the three presets and the naive
// enumerator on a mid-sized workload — the cost of exactness.
func BenchmarkEngineComparison(b *testing.B) {
	w, err := cupid.Generate(cupid.Config{Seed: 3, Classes: 40, RelPairs: 80, Hubs: 2, HubFanout: 6})
	if err != nil {
		b.Fatal(err)
	}
	o := cupid.NewOracle(w, 9)
	qs, err := o.Queries(5)
	if err != nil {
		b.Fatal(err)
	}
	// run returns the traverse calls per query of the last iteration.
	run := func(b *testing.B, complete func(pathexpr.Expr) (*core.Result, error)) float64 {
		b.Helper()
		var calls int
		for i := 0; i < b.N; i++ {
			calls = 0
			for _, q := range qs {
				res, err := complete(q.Expr)
				if err != nil {
					b.Fatal(err)
				}
				calls += res.Stats.Calls
			}
		}
		return float64(calls) / float64(len(qs))
	}
	for _, p := range []struct {
		name string
		opts core.Options
	}{{"paper", core.Paper()}, {"safe", core.Safe()}, {"exact", core.Exact()}} {
		b.Run(p.name, func(b *testing.B) {
			c := core.New(w.Schema, p.opts)
			b.ReportMetric(run(b, c.Complete), "calls/query")
		})
	}
	b.Run("naive", func(b *testing.B) {
		run(b, func(e pathexpr.Expr) (*core.Result, error) {
			return core.NaiveComplete(w.Schema, e, core.Exact(), 0)
		})
	})
}

// BenchmarkAblation quantifies the individual optimizations of
// Algorithm 2 on the CUPID-scale workload at E=1: the best[T] bound,
// the per-node best[u] test, caution sets, and early target
// exploration.
func BenchmarkAblation(b *testing.B) {
	w, r := fixtures(b)
	variants := []struct {
		name string
		mut  func(*core.Options)
	}{
		{"full", func(o *core.Options) {}},
		{"no-bestT", func(o *core.Options) { o.DisableBestT = true }},
		{"no-bestU", func(o *core.Options) { o.DisableBestU = true }},
		{"no-caution", func(o *core.Options) { o.Caution = core.CautionOff }},
		{"no-early-target", func(o *core.Options) { o.NoEarlyTarget = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opts := core.Paper()
			v.mut(&opts)
			cmp := core.New(w.Schema, opts)
			var calls, answers int
			for i := 0; i < b.N; i++ {
				calls, answers = 0, 0
				for _, q := range r.Queries {
					res, err := cmp.Complete(q.Expr)
					if err != nil {
						b.Fatal(err)
					}
					calls += res.Stats.Calls
					answers += len(res.Completions)
				}
			}
			b.ReportMetric(float64(calls)/float64(len(r.Queries)), "calls/query")
			b.ReportMetric(float64(answers)/float64(len(r.Queries)), "answers/query")
		})
	}
}

// BenchmarkSchemaScaling sweeps the generator size: completion cost as
// the schema grows.
func BenchmarkSchemaScaling(b *testing.B) {
	for _, n := range []int{25, 50, 100, 200} {
		b.Run(benchN(n), func(b *testing.B) {
			w, err := cupid.Generate(cupid.Config{
				Seed: 5, Classes: n, RelPairs: 2 * n, Hubs: 2, HubFanout: 6,
			})
			if err != nil {
				b.Fatal(err)
			}
			o := cupid.NewOracle(w, 13)
			qs, err := o.Queries(3)
			if err != nil {
				b.Skip("oracle could not build queries at this size")
			}
			cmp := core.New(w.Schema, core.Paper())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if _, err := cmp.Complete(q.Expr); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkClosureUniversityTaName measures the paper's flagship
// warm single-gap point query both ways: through the search kernel
// (the cost of every such query before the closure index existed) and
// as a lookup into the materialized all-pairs index (the serving hot
// path once background warming finishes). The closure tentpole
// targets >=10x between the two series; the build sub-bench prices
// the one-time warming the speedup is bought with.
func BenchmarkClosureUniversityTaName(b *testing.B) {
	s := uni.New()
	e := pathexpr.MustParse("ta~name")
	cmp := core.New(s, core.Exact())

	b.Run("search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := cmp.Complete(e)
			if err != nil || len(res.Completions) != 2 {
				b.Fatalf("res=%v err=%v", res, err)
			}
		}
	})

	ix, err := closure.Build(context.Background(), "university", 1, cmp, nil)
	if err != nil {
		b.Fatal(err)
	}
	root := s.MustClass("ta").ID
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, ok := ix.Lookup(root, "name")
			if !ok || len(res.Completions) != 2 {
				b.Fatalf("res=%v ok=%v", res, ok)
			}
		}
	})

	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := closure.Build(context.Background(), "university", 1, cmp, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdstart prices the restart decision on a 1000-class
// generated schema: warming the all-pairs closure by search from
// scratch (what every restart paid before durable snapshots) versus
// restoring it from the checksummed on-disk file, validation and all.
// The disk series is the robustness tentpole's >=10x claim; the
// rebuild series is the bill it avoids.
//
// The relationship count stays near the containment backbone (tree-
// like): every cross edge beyond the tree multiplies the simple paths
// the exhaustive sweep must enumerate, and at this class count even a
// few percent extra edges move one rebuild from tens of seconds into
// hours. The restore series is indifferent to density — it decodes
// cells instead of searching — which is exactly the asymmetry the
// durable snapshot exploits.
func BenchmarkColdstart(b *testing.B) {
	const name = "cupid1k"
	w, err := cupid.Generate(cupid.Config{
		Seed: 7, Classes: 1000, RelPairs: 760, Hubs: 0, HubFanout: 0,
	})
	if err != nil {
		b.Fatal(err)
	}
	cmp := core.New(w.Schema, core.Exact())
	ix, err := closure.Build(context.Background(), name, 1, cmp, nil)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := persist.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	f, err := persist.Capture(name, w.Schema, core.Exact(), 1, 0, ix)
	if err != nil {
		b.Fatal(err)
	}
	if err := ps.Save(f); err != nil {
		b.Fatal(err)
	}
	ps.Flush()

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := closure.Build(context.Background(), name, 1, cmp, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := ps.Restore(name, w.Schema, core.Exact(), 1)
			if err != nil || got == nil {
				b.Fatalf("restore: (%v, %v)", got, err)
			}
			if got.Cells() != ix.Cells() {
				b.Fatalf("restored %d cells, built %d", got.Cells(), ix.Cells())
			}
		}
	})
}

// BenchmarkServerComplete measures the HTTP front end through
// /v1/complete: a cold completion (fresh server per iteration set,
// first request computes) versus the memoized hot path an interactive
// loop sees.
func BenchmarkServerComplete(b *testing.B) {
	body := `{"expr":"ta~name"}`
	post := func(b *testing.B, base string) {
		resp, err := http.Post(base+"/v1/complete", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/complete: status %d", resp.StatusCode)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sv := server.New(uni.New(), nil, core.Exact())
			ts := httptest.NewServer(sv.Handler())
			post(b, ts.URL)
			ts.Close()
		}
	})
	b.Run("hot", func(b *testing.B) {
		sv := server.New(uni.New(), nil, core.Exact())
		ts := httptest.NewServer(sv.Handler())
		defer ts.Close()
		post(b, ts.URL) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL)
		}
	})
}

// BenchmarkEvalStore measures path-expression evaluation over the
// sample object store (the Figure 1 evaluator).
func BenchmarkEvalStore(b *testing.B) {
	st := uni.SampleStore()
	r, err := pathexpr.Resolve(st.Schema(), pathexpr.MustParse("department$>professor@>teacher.teach.name"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := st.Eval(r); len(got) != 2 {
			b.Fatalf("eval = %v", got)
		}
	}
}

func benchE(e int) string { return "E=" + strconv.Itoa(e) }

func benchN(n int) string {
	switch n {
	case 25:
		return "classes=25"
	case 50:
		return "classes=50"
	case 100:
		return "classes=100"
	default:
		return "classes=200"
	}
}
