package core_test

// The randomized differential-oracle suite. Where equiv_test.go checks
// hand-shaped random schemas, this suite drives the compiled kernel
// and the naive definitional enumeration over ~200 generator-built
// schemas spanning the whole supported size range (3..60 user classes,
// random Isa depth, every connector kind the cupid generator emits)
// and requires exact agreement on the answer set, its order, and the
// optimal label set.
//
// Everything is seeded and reproducible: a failure report names the
// schema seed, the generator config, the query, and the option set.
// On disagreement the full reproducer — the schema in SDL text plus
// the query and options — is additionally dumped under
// testdata/oracle_failures/ so a red CI run leaves a corpus behind.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
)

// oracleSchemas is the number of random schemas the suite sweeps.
const oracleSchemas = 200

// oracleEnumLimit bounds the naive enumeration per query; queries
// whose consistent-path set explodes past it are skipped (the pruned
// engines are still exercised against each other on them).
const oracleEnumLimit = 150_000

// oracleConfig derives a generator config from the schema index:
// sizes cycle through 3..60 classes, relationship density and hub
// count vary with the seed, so the corpus covers tiny degenerate
// schemas, mid-size tangles, and CUPID-shaped ones.
func oracleConfig(i int64) cupid.Config {
	r := rand.New(rand.NewSource(i * 48271))
	classes := 3 + int(i)%58 // 3..60
	hubs := 0
	if classes >= 12 {
		hubs = r.Intn(3)
	}
	fanout := 0
	if hubs > 0 {
		fanout = 2 + r.Intn(5)
	}
	// Relationship pairs: at least enough for the backbone plus some
	// attributes, scaled by a random density factor.
	pairs := classes - 1 + hubs*fanout + classes/2 + r.Intn(2*classes+4)
	return cupid.Config{
		Seed:      i,
		Classes:   classes,
		RelPairs:  pairs,
		Hubs:      hubs,
		HubFanout: fanout,
	}
}

// oracleAnchors picks gap anchors for a generated schema: the shared
// attribute names the generator reuses across classes (genuinely
// ambiguous), plus a few relationship and class names.
func oracleAnchors(s *schema.Schema, r *rand.Rand) []string {
	set := map[string]bool{"value": true, "name": true, "units": true}
	rels := s.Rels()
	for k := 0; k < 4 && len(rels) > 0; k++ {
		set[rels[r.Intn(len(rels))].Name] = true
	}
	cs := s.Classes()
	for k := 0; k < 3; k++ {
		c := cs[r.Intn(len(cs))]
		if !c.Primitive {
			set[c.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out) // deterministic sweep order
	return out
}

// sortedBest returns the Best label keys in a canonical order, so the
// pruned search (insertion order) and the naive enumeration (AggStar
// order) can be compared as sets.
func sortedBest(keys []label.Key) []label.Key {
	out := make([]label.Key, len(keys))
	copy(out, keys)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SemLen != out[j].SemLen {
			return out[i].SemLen < out[j].SemLen
		}
		return out[i].Conn.String() < out[j].Conn.String()
	})
	return out
}

// resultView is the externally observable outcome of a search, for
// exact comparison between engines (mirrors the in-package helper of
// kernel_equiv_test.go, restated here because this suite lives in the
// external test package to reach the cupid generator).
type resultView struct {
	Completions []string
	Labels      []string
	Best        []label.Key
	Truncated   bool
	Aborted     bool
}

func view(r *core.Result) resultView {
	labels := make([]string, len(r.Completions))
	for i, c := range r.Completions {
		labels[i] = c.Label.String()
	}
	return resultView{
		Completions: r.Strings(),
		Labels:      labels,
		Best:        r.Best,
		Truncated:   r.Truncated,
		Aborted:     r.Aborted,
	}
}

// dumpOracleFailure writes the reproducer corpus entry for one
// disagreement: the schema as SDL plus a report naming the seed,
// config, query, options, and both answers.
func dumpOracleFailure(t *testing.T, cfg cupid.Config, s *schema.Schema, e pathexpr.Expr, opts core.Options, report string) {
	t.Helper()
	dir := filepath.Join("testdata", "oracle_failures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("oracle corpus: mkdir: %v", err)
		return
	}
	base := filepath.Join(dir, fmt.Sprintf("seed%04d", cfg.Seed))
	if text, err := sdl.WriteString(s); err == nil {
		if err := os.WriteFile(base+".sdl", []byte(text), 0o644); err != nil {
			t.Logf("oracle corpus: %v", err)
		}
	}
	body := fmt.Sprintf("config: %+v\nexpr: %s\nopts: %+v\n\n%s\n", cfg, e.String(), opts, report)
	if err := os.WriteFile(base+".txt", []byte(body), 0o644); err != nil {
		t.Logf("oracle corpus: %v", err)
	}
	t.Logf("oracle corpus: reproducer written to %s.{sdl,txt}", base)
}

// TestOracleDifferential is the suite entry point: for every generated
// schema it runs a query mix through the compiled engine and the naive
// enumeration, and requires
//
//	compiled == naive     on answers, order, labels, and the optimal
//	                      label set (as a set; the naive engine
//	                      reports Best in AggStar order).
//
// Both engines run in Exact mode — the only mode whose pruning is
// provably lossless against the definitional enumeration (see
// DESIGN.md on the reconstructed ≺ order) — with E, preemption, and
// specificity preferences varied per schema.
func TestOracleDifferential(t *testing.T) {
	n := int64(oracleSchemas)
	if testing.Short() {
		n = 40
	}
	disagreements := 0
	for i := int64(0); i < n; i++ {
		cfg := oracleConfig(i)
		w, err := cupid.Generate(cfg)
		if err != nil {
			t.Fatalf("schema %d: Generate(%+v): %v", i, cfg, err)
		}
		s := w.Schema
		r := rand.New(rand.NewSource(i*69621 + 1))

		opts := core.Exact()
		opts.E = 1 + int(i)%3
		opts.NoPreemption = i%2 == 0
		opts.PreferSpecific = i%5 == 0

		cmp := core.New(s, opts)

		// Query mix: up to four random non-primitive roots crossed with
		// the anchor set.
		var roots []string
		for _, c := range s.Classes() {
			if !c.Primitive {
				roots = append(roots, c.Name)
			}
		}
		r.Shuffle(len(roots), func(a, b int) { roots[a], roots[b] = roots[b], roots[a] })
		if len(roots) > 4 {
			roots = roots[:4]
		}
		queried := 0
		for _, root := range roots {
			for _, anchor := range oracleAnchors(s, r) {
				e := pathexpr.Expr{Root: root, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
				got, err := cmp.Complete(e)
				if err != nil {
					continue // anchor absent from this schema
				}
				queried++

				naive, err := core.NaiveComplete(s, e, opts, oracleEnumLimit)
				if err != nil {
					if err == core.ErrEnumLimit {
						continue // pathological blowup; pruned engines already cross-checked
					}
					t.Errorf("schema %d %v: NaiveComplete: %v", i, e, err)
					continue
				}
				gv, nv := view(got), view(naive)
				gv.Best, nv.Best = sortedBest(gv.Best), sortedBest(nv.Best)
				nv.Aborted, nv.Truncated = gv.Aborted, gv.Truncated // naive has no budget flags
				if !reflect.DeepEqual(gv, nv) {
					disagreements++
					report := fmt.Sprintf("compiled: %+v\nnaive:    %+v", gv, nv)
					t.Errorf("schema %d (classes=%d, E=%d) %v: compiled vs naive disagree:\n%s", i, cfg.Classes, opts.E, e, report)
					dumpOracleFailure(t, cfg, s, e, opts, report)
				}
			}
		}
		if queried == 0 {
			t.Errorf("schema %d (classes=%d): no valid queries — anchor selection is broken for this shape", i, cfg.Classes)
		}
	}
	if disagreements > 0 {
		t.Logf("oracle suite: %d disagreements; reproducers under testdata/oracle_failures/", disagreements)
	}
}

// TestOracleIncrementalPrefix is the incremental-vs-oneshot lane: the
// session surface answers keystroke prefixes by advancing a cached
// per-anchor frontier, and this lane proves over the generated corpus
// that the warm incremental answer is bit-for-bit the cold one-shot
// answer at every keystroke. For each schema it types each sampled
// anchor character by character through one shared Frontier (exactly
// a session's lifetime: cells accumulate across keystrokes) and
// requires, per prefix,
//
//	warm Advance == cold CompletePrefixContext  on answers, order,
//	                labels, and best set, and
//	warm Advance == one-shot Complete           whenever the prefix
//	                has narrowed to exactly its own anchor, and
//	refinements after the first keystroke run zero cold searches
//	                (the resumability invariant), and
//	a prefix matching nothing errors on both paths.
//
// Disagreements persist reproducers under testdata/oracle_failures/
// like the engine lane above.
func TestOracleIncrementalPrefix(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 12
	}
	disagreements := 0
	for i := int64(0); i < n; i++ {
		cfg := oracleConfig(i*5 + 2) // stride for shape diversity at low n
		w, err := cupid.Generate(cfg)
		if err != nil {
			t.Fatalf("schema %d: Generate(%+v): %v", i, cfg, err)
		}
		s := w.Schema
		r := rand.New(rand.NewSource(i*31337 + 7))

		opts := core.Exact()
		opts.E = 1 + int(i)%3
		opts.NoPreemption = i%2 == 0
		cmp := core.New(s, opts)

		var roots []string
		for _, c := range s.Classes() {
			if !c.Primitive {
				roots = append(roots, c.Name)
			}
		}
		r.Shuffle(len(roots), func(a, b int) { roots[a], roots[b] = roots[b], roots[a] })
		if len(roots) > 2 {
			roots = roots[:2]
		}
		anchors := core.GapAnchors(s)
		queried := 0
		for _, root := range roots {
			base := pathexpr.Expr{Root: root, Steps: []pathexpr.Step{{Gap: true, Name: "x"}}}
			fr, err := cmp.NewFrontier(base)
			if err != nil {
				continue // primitive-only or degenerate root shape
			}
			// Sample up to five anchors to type out; keep the shared
			// attribute names when present (the ambiguous ones).
			typed := map[string]bool{}
			for _, a := range []string{"value", "name", "units"} {
				typed[a] = true
			}
			for k := 0; k < 2 && len(anchors) > 0; k++ {
				typed[anchors[r.Intn(len(anchors))]] = true
			}
			names := make([]string, 0, len(typed))
			for a := range typed {
				names = append(names, a)
			}
			sort.Strings(names)
			for _, anchor := range names {
				prevCells := -1
				for l := 1; l <= len(anchor); l++ {
					prefix := anchor[:l]
					warm, info, werr := fr.Advance(nil, prefix, nil)
					e := pathexpr.Expr{Root: root, Steps: []pathexpr.Step{{Gap: true, Name: prefix}}}
					cold, cerr := cmp.CompletePrefixContext(nil, e)
					if (werr != nil) != (cerr != nil) {
						disagreements++
						report := fmt.Sprintf("warm err: %v\ncold err: %v", werr, cerr)
						t.Errorf("schema %d %s prefix %q: error disagreement:\n%s", i, root, prefix, report)
						dumpOracleFailure(t, cfg, s, e, opts, report)
						break
					}
					if werr != nil {
						break // no anchor matches this prefix in this schema
					}
					queried++
					wv, cv := view(warm), view(cold)
					if !reflect.DeepEqual(wv, cv) {
						disagreements++
						report := fmt.Sprintf("warm: %+v\ncold: %+v", wv, cv)
						t.Errorf("schema %d (classes=%d, E=%d) %s prefix %q: warm vs cold disagree:\n%s", i, cfg.Classes, opts.E, root, prefix, report)
						dumpOracleFailure(t, cfg, s, e, opts, report)
					}
					// Resumability: once every matching cell exists, a
					// refinement must not search. Cells only grow, so after
					// the first keystroke of this anchor the narrower
					// prefixes are fully covered.
					if prevCells >= 0 && info.Cold != 0 {
						t.Errorf("schema %d %s prefix %q: refinement ran %d cold searches (Calls=%d)", i, root, prefix, info.Cold, info.Calls)
					}
					prevCells = fr.Cells()
					if m := fr.Matches(prefix); len(m) == 1 && m[0] == prefix {
						one, oerr := cmp.Complete(e)
						if oerr != nil {
							t.Errorf("schema %d %s anchor %q: Complete errored where frontier did not: %v", i, root, prefix, oerr)
							continue
						}
						wv2 := view(warm)
						ov := view(one)
						if !reflect.DeepEqual(wv2, ov) {
							disagreements++
							report := fmt.Sprintf("frontier: %+v\noneshot:  %+v", wv2, ov)
							t.Errorf("schema %d (classes=%d) %s anchor %q: frontier vs one-shot Complete disagree:\n%s", i, cfg.Classes, root, prefix, report)
							dumpOracleFailure(t, cfg, s, e, opts, report)
						}
					}
				}
			}
			if _, _, err := fr.Advance(nil, "zz\x00nope", nil); err == nil {
				t.Errorf("schema %d %s: impossible prefix matched", i, root)
			}
		}
		if queried == 0 {
			t.Errorf("schema %d (classes=%d): incremental lane found no typeable prefixes", i, cfg.Classes)
		}
	}
	if disagreements > 0 {
		t.Logf("incremental lane: %d disagreements; reproducers under testdata/oracle_failures/", disagreements)
	}
}

// TestOracleConfigCoverage pins the corpus shape: the configs the
// suite derives must cover the full 3..60 size range and include
// hubful (cyclic) and hub-free (near-tree) schemas. A silent change to
// oracleConfig that narrowed the corpus would weaken the whole suite.
func TestOracleConfigCoverage(t *testing.T) {
	sizes := map[int]bool{}
	hubful := false
	hubfree := false
	for i := int64(0); i < oracleSchemas; i++ {
		cfg := oracleConfig(i)
		if cfg.Classes < 3 || cfg.Classes > 60 {
			t.Fatalf("config %d: classes %d outside [3, 60]", i, cfg.Classes)
		}
		sizes[cfg.Classes] = true
		if cfg.Hubs > 0 {
			hubful = true
		} else {
			hubfree = true
		}
	}
	for want := 3; want <= 60; want++ {
		if !sizes[want] {
			t.Errorf("corpus never generates a %d-class schema", want)
		}
	}
	if !hubful || !hubfree {
		t.Errorf("corpus lacks shape diversity: hubful=%v hubfree=%v", hubful, hubfree)
	}
}
