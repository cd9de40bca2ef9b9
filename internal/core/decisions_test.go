package core_test

// The kernel decision golden. Every line of testdata/decisions.golden is
// one search on the paper-scale cupid92 schema: its completions and
// their labels, Best, every Stats field, the stop flags and the Support
// edge set. The searches cover the heuristic presets at every E the
// figures and the server's e overrides use, and the exact preset under
// a call budget (unbudgeted, a few cupid92 cells take millions of
// calls). A change to how the kernel stores or tests its best[] sets
// must leave every line as it is: the golden pins the search's
// decisions, not only its answers. Regenerate it only for an intended
// change of behavior:
//
//	go test ./internal/core -run TestKernelDecisions -update

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden from the current kernel")

const decisionsGolden = "testdata/decisions.golden"

// decisionCalls is the call budget of the exact lanes.
const decisionCalls = 20_000

// decisionPreset is one configuration every query runs under.
type decisionPreset struct {
	name string
	opts core.Options
}

// decisionPresets lists the configurations every query runs under.
func decisionPresets() []decisionPreset {
	var out []decisionPreset
	for _, e := range []int{1, 2, 3, 5} {
		o := core.Paper()
		o.E = e
		out = append(out, decisionPreset{fmt.Sprintf("paper e=%d", e), o})
	}
	for _, e := range []int{1, 2, 3, 5} {
		o := core.Safe()
		o.E = e
		out = append(out, decisionPreset{fmt.Sprintf("safe e=%d", e), o})
	}
	for _, e := range []int{1, 3} {
		o := core.Exact()
		o.E = e
		o.MaxCalls = decisionCalls
		out = append(out, decisionPreset{fmt.Sprintf("exact e=%d calls<=%d", e, decisionCalls), o})
	}
	return out
}

// decisionQueries draws the query set from seeded random simple walks
// over s, so most queries have answers: single-gap and two-gap queries,
// regex-constrained gaps (the walk's first edge, or the degenerate .*)
// and gaps ending at a string attribute under a pushed-down predicate.
func decisionQueries(s *schema.Schema) []string {
	rng := rand.New(rand.NewSource(2026))
	var roots []schema.ClassID
	for _, c := range s.Classes() {
		if !c.Primitive {
			roots = append(roots, c.ID)
		}
	}
	walk := func(minLen int) (string, []schema.Rel) {
		for {
			root := roots[rng.Intn(len(roots))]
			want := 1 + rng.Intn(6)
			seen := map[schema.ClassID]bool{root: true}
			var path []schema.Rel
			for cur := root; len(path) < want; {
				var next []schema.Rel
				for _, id := range s.Out(cur) {
					if r := s.Rel(id); !seen[r.To] {
						next = append(next, r)
					}
				}
				if len(next) == 0 {
					break
				}
				r := next[rng.Intn(len(next))]
				path = append(path, r)
				seen[r.To] = true
				cur = r.To
			}
			if len(path) >= minLen {
				return s.Class(root).Name, path
			}
		}
	}
	var qs []string
	seen := map[string]bool{}
	add := func(q string) {
		if !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	for len(qs) < 40 {
		root, p := walk(1)
		add(root + "~" + p[len(p)-1].Name)
	}
	for len(qs) < 60 {
		root, p := walk(2)
		add(root + "~" + p[rng.Intn(len(p)-1)].Name + "~" + p[len(p)-1].Name)
	}
	for len(qs) < 75 {
		root, p := walk(1)
		re := p[0].Name + ".*"
		if len(qs)%3 == 0 {
			re = ".*"
		}
		add(fmt.Sprintf("%s~(%s)~%s", root, re, p[len(p)-1].Name))
	}
	for len(qs) < 90 {
		root, p := walk(1)
		if last := p[len(p)-1]; s.Class(last.To).Name == "C" {
			add(fmt.Sprintf(`%s~%s[self != "zz%d"]`, root, last.Name, len(qs)))
		}
	}
	return qs
}

// decisionShown is the number of completions a golden line spells out;
// the digest covers all of them.
const decisionShown = 2

// decisionLine renders one search as one golden line. The completions,
// with their labels and in result order, enter an FNV-1a digest, so a
// query with a thousand answers at E=5 still takes one short line; the
// first decisionShown are also written out for the reader.
func decisionLine(preset, q string, res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | %s | %+v trunc=%v exh=%v aborted=%v stop=%q | best=%v | support=", preset, q,
		res.Stats, res.Truncated, res.Exhausted, res.Aborted, res.StopReason, res.Best)
	for _, w := range res.Support {
		fmt.Fprintf(&b, "%016x", w)
	}
	h := fnv.New64a()
	for _, c := range res.Completions {
		fmt.Fprintln(h, c)
	}
	fmt.Fprintf(&b, " | n=%d digest=%016x", len(res.Completions), h.Sum64())
	for i, c := range res.Completions {
		if i == decisionShown {
			b.WriteString(" ...")
			break
		}
		fmt.Fprintf(&b, " %s;", c)
	}
	return b.String()
}

// TestKernelDecisions runs every query under every preset and diffs the
// lines against the golden. Under -short it runs every fifth query and
// checks those lines only.
func TestKernelDecisions(t *testing.T) {
	w, err := cupid.Generate(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs := decisionQueries(w.Schema)
	short := testing.Short() && !*update
	var got []string
	for _, p := range decisionPresets() {
		cmp := core.New(w.Schema, p.opts)
		for i, q := range qs {
			if short && i%5 != 0 {
				continue
			}
			e, err := pathexpr.Parse(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			res, err := cmp.Complete(e)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, q, err)
			}
			got = append(got, decisionLine(p.name, q, res))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(decisionsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decisionsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), decisionsGolden)
		return
	}
	raw, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		want[decisionKey(line)] = line
	}
	if !short && len(want) != len(got) {
		t.Errorf("golden has %d lines, the kernel produced %d", len(want), len(got))
	}
	bad := 0
	for _, line := range got {
		if w, ok := want[decisionKey(line)]; !ok || w != line {
			if bad++; bad <= 5 {
				t.Errorf("decision changed:\n got  %s\n want %s", line, w)
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more changed decisions", bad-5)
	}
}

// decisionKey is the preset and query part of a golden line.
func decisionKey(line string) string {
	parts := strings.SplitN(line, " | ", 3)
	if len(parts) < 2 {
		return line
	}
	return parts[0] + " | " + parts[1]
}
