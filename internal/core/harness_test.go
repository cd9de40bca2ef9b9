package core_test

// The differential harness: the one place where every answer path
// proves that it gives the paper's definitional answer. The paper
// defines a completion as AGG* over Ψ, the set of consistent acyclic
// paths (Section 3); Algorithm 2 and everything built on it are faster
// routes to that answer. The harness has four parts:
//
//   - one corpus: the cupid schemas of oracleConfig (3..60 classes,
//     hubful and hub-free) and the random shapes of randSchema, with
//     single-gap, multi-gap, constrained, predicate and Exclude
//     queries, and random patterns with explicit steps, predicates on
//     any step and constraints on any gap, under option mixes that
//     vary with the schema;
//   - Ψ enumerated once per (schema, base query, Exclude), the base
//     being the query without its gap constraints and predicates;
//   - every naive answer derived from that Ψ: keep the members that
//     satisfy the query's annotations, then select (AGG*, Support,
//     preemption, specificity, order);
//   - one comparison, check, which on a difference writes the schema
//     as SDL, with the query, the options and both answers, under
//     testdata/oracle_failures/.
//
// Each answer path is an adapter that feeds check:
//
//	exact        Exact() against naive: answers, order, labels, Best
//	             (as a set), Support ⊇ completion edges. AGG*(Ψ, 1) =
//	             AGG(Ψ), and a query the reachability check answers
//	             has an empty Ψ.
//	sound        every preset: each completion acyclic, consistent and
//	             clear of Exclude. How often Paper() and Safe() differ
//	             from naive is reported, not gated.
//	warm         every preset: a second run on the same Completer
//	             equals the first, Result and Stats.
//	annotations  each annotated completion is a member of the base Ψ;
//	             .* and .+ give the unconstrained Result bit for bit.
//	frontier     a warm Advance equals a cold CompletePrefixContext,
//	             and the one-shot answer once narrowed to one anchor;
//	             a refinement runs no cold search.
//	closure      every cell of a built index, and of its
//	persist      Capture→Encode→Decode→RestoreIndex copy, DeepEquals
//	             the kernel one-shot under Exact(), Paper() and Safe().
//	wire         /v1/complete (kernel, memo and closure answers) and
//	             /v1/sessions finals render the one-shot answer.
//
// A cell whose Ψ passes the enumeration limit skips only the naive
// comparison: every other adapter still compares it with the one-shot.
// The harness fails when an adapter compares no cell on a schema it
// runs on. A new answer path is one more adapter.
//
// Each check names its property, and a comparison with naive the query
// family of its cell. The harness runs once per test binary:
// TestOracleHarness fails on every disagreement, and the tests named
// after the suites it replaced each fail on the disagreements whose
// message names their property.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/persist"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
	"pathcomplete/internal/server"
	"pathcomplete/internal/session/sessiontest"
)

const (
	// oracleSchemas and randSchemas size the corpus (40 and 15 under
	// -short).
	oracleSchemas = 200
	randSchemas   = 60

	// oracleEnumLimit bounds one enumeration of Ψ. A key past it is a
	// limit key: its cells skip the naive comparison and nothing else.
	// No key of the corpus passes it (the largest Ψ has 21,667 paths);
	// TestOracleEnumLimit runs the limit path under a small limit.
	oracleEnumLimit = 200_000
)

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
	out := []string{"value", "name", "units"}
	rels := s.Rels()
	for k := 0; k < 4 && len(rels) > 0; k++ {
		out = append(out, rels[r.Intn(len(rels))].Name)
	}
	cs := s.Classes()
	for k := 0; k < 3; k++ {
		if c := cs[r.Intn(len(cs))]; !c.Primitive {
			out = append(out, c.Name)
		}
	}
	slices.Sort(out) // deterministic sweep order
	return slices.Compact(out)
}

// TestOracleConfigCoverage pins the corpus shape: the configs the
// harness derives must cover the full 3..60 size range and include
// hubful (cyclic) and hub-free (near-tree) schemas. A silent change to
// oracleConfig that narrowed the corpus would weaken the whole harness.
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

// The presets every schema runs under, indexes into hCase.presets.
const (
	exact = iota
	paper
	safe
)

var presetNames = [...]string{"exact", "paper", "safe"}

// hPreset is one preset with the schema's option mix applied, and the
// Completer every adapter of the schema shares.
type hPreset struct {
	opts core.Options
	cmp  *core.Completer
}

// hQuery is one base query: unannotated, with its own key of Ψ.
// annotate derives the .* and .+, constrained and predicate queries
// from it; patterns are the annotated random patterns over it, and
// pattern marks a base that is itself a random pattern.
type hQuery struct {
	base     pathexpr.Expr
	annotate bool
	pattern  bool
	patterns []pathexpr.Expr
}

// hCase is one schema of the corpus.
type hCase struct {
	name    string // names the reproducer files
	origin  string // how to regenerate the schema
	cupid   bool   // an oracleConfig schema, not a randSchema one
	s       *schema.Schema
	r       *rand.Rand
	presets [3]hPreset
	queries []hQuery
	preds   []string // predicates of the annotated queries

	frontier, closure, wire bool // the sampled adapters

	wireCells  []oneShot      // the cells the wire adapter sends
	limitCells []oneShot      // the cells past the enumeration limit
	compared   map[string]int // cells compared, by adapter
}

// oneShot is a query with its one-shot answer under Exact().
type oneShot struct {
	e   pathexpr.Expr
	res *core.Result
}

// newCase applies mix's E, NoPreemption, PreferSpecific and Exclude to
// every preset, and runs the two ablations on some schemas: on every
// seventh the exact preset offers completing moves late (NoEarlyTarget,
// still exact) and on another seventh the paper preset has no caution
// sets (CautionOff). On every fourth the paper preset keeps at most
// three paths (Truncated cells for the closure and persist adapters).
func newCase(name, origin string, seed int64, s *schema.Schema, r *rand.Rand, mix core.Options) *hCase {
	c := &hCase{name: name, origin: origin, s: s, r: r, compared: map[string]int{}}
	for p, opts := range []core.Options{core.Exact(), core.Paper(), core.Safe()} {
		opts.E, opts.NoPreemption, opts.PreferSpecific, opts.Exclude = mix.E, mix.NoPreemption, mix.PreferSpecific, mix.Exclude
		if p == exact && seed%7 == 3 {
			opts.NoEarlyTarget = true
		}
		if p == paper && seed%7 == 5 {
			opts.Caution = core.CautionOff
		}
		if p == paper && seed%4 == 0 {
			opts.MaxPaths = 3
		}
		c.presets[p] = hPreset{opts: opts, cmp: core.New(s, opts)}
	}
	return c
}

// roots returns the schema's non-primitive class names, shuffled by
// the case's generator and cut to at most n (n < 0: all, in order).
func (c *hCase) roots(n int) []string {
	var out []string
	for _, cls := range c.s.Classes() {
		if !cls.Primitive {
			out = append(out, cls.Name)
		}
	}
	if n < 0 {
		return out
	}
	c.r.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out[:min(n, len(out))]
}

func gap(root string, anchors ...string) pathexpr.Expr {
	e := pathexpr.Expr{Root: root}
	for _, a := range anchors {
		e.Steps = append(e.Steps, pathexpr.Step{Gap: true, Name: a})
	}
	return e
}

var (
	oraclePreds = []string{`self = "x"`, `value > 10`, `name != "a"`, `units <= 2.5`}
	randPreds   = []string{`self = "x"`, `self >= 2.5`, `label != "a"`, `size < 7`}
)

// oracleCase is cupid schema i under the mix of E = 1..3, preemption
// on and off and the specificity preference on every fifth schema. Up
// to four roots cross the sampled anchors; the first 60 schemas
// annotate the cells of two roots and draw 30 random patterns. The
// closure adapter runs on the even schemas of up to 24 classes, the
// frontier on every fifth, the wire on every fiftieth.
func oracleCase(t *testing.T, i int64) *hCase {
	cfg := oracleConfig(i)
	w, err := cupid.Generate(cfg)
	if err != nil {
		t.Fatalf("schema %d: Generate(%+v): %v", i, cfg, err)
	}
	mix := core.Options{E: 1 + int(i)%3, NoPreemption: i%2 == 0, PreferSpecific: i%5 == 0}
	c := newCase(fmt.Sprintf("oracle%03d", i), fmt.Sprintf("cupid.Generate(%+v)", cfg), i,
		w.Schema, rand.New(rand.NewSource(i*69621+1)), mix)
	c.cupid = true
	for k, root := range c.roots(4) {
		for _, anchor := range oracleAnchors(c.s, c.r) {
			c.queries = append(c.queries, hQuery{base: gap(root, anchor), annotate: i < 60 && k < 2})
		}
	}
	if i < 60 {
		c.addPatterns(30)
	}
	c.preds = oraclePreds[i%4 : i%4+1]
	c.frontier = i%5 == 2
	c.closure = cfg.Classes <= 24 && i%2 == 0
	c.wire = i%50 == 7
	return c
}

// addPatterns draws n random patterns of one to three gaps, with
// explicit steps, predicates on any step and constraints on any gap
// (randReachPattern). It adds those without a class-anchored gap,
// which naive has no form for, under their unannotated bases: each
// base one query, shared with the cells already there, and each
// pattern once.
func (c *hCase) addPatterns(n int) {
	for ; n > 0; n-- {
		e, classGaps := randReachPattern(c.s, c.r)
		if len(classGaps) > 0 {
			continue
		}
		base := pathexpr.Expr{Root: e.Root, Steps: slices.Clone(e.Steps)}
		for j := range base.Steps {
			base.Steps[j].Constraint, base.Steps[j].Pred = "", ""
		}
		k := slices.IndexFunc(c.queries, func(q hQuery) bool { return q.base.String() == base.String() })
		if k < 0 {
			k = len(c.queries)
			c.queries = append(c.queries, hQuery{base: base, pattern: true})
		}
		q := &c.queries[k]
		if e.String() != base.String() && !slices.ContainsFunc(q.patterns, func(p pathexpr.Expr) bool { return p.String() == e.String() }) {
			q.patterns = append(q.patterns, e)
		}
	}
}

// randCase is randSchema(seed) under E = 1..3, preemption on and off,
// the specificity preference on every fifth seed and one excluded
// class on every fourth. Every root crosses its sampled anchors; the
// first 25 seeds add one two-gap query per root, and the first 15
// annotate the cells of three roots.
func randCase(t *testing.T, seed int64) *hCase {
	s := core.RandSchema(t, seed)
	r := rand.New(rand.NewSource(seed * 7691))
	mix := core.Options{E: 1 + int(seed)%3, NoPreemption: seed%2 == 0, PreferSpecific: seed%5 == 1}
	if seed%4 == 3 {
		var ids []schema.ClassID
		for _, cls := range s.Classes() {
			if !cls.Primitive {
				ids = append(ids, cls.ID)
			}
		}
		mix.Exclude = map[schema.ClassID]bool{ids[r.Intn(len(ids))]: true}
	}
	c := newCase(fmt.Sprintf("rand%03d", seed), fmt.Sprintf("core.RandSchema(t, %d)", seed), seed, s, r, mix)
	for k, root := range c.roots(-1) {
		as := core.RandAnchors(s, r)
		for _, anchor := range as {
			c.queries = append(c.queries, hQuery{base: gap(root, anchor), annotate: seed < 15 && k < 3})
		}
		if seed < 25 {
			c.queries = append(c.queries, hQuery{base: gap(root, as[r.Intn(len(as))], as[r.Intn(len(as))])})
		}
	}
	c.preds = randPreds
	c.closure = seed%6 == 0
	c.wire = seed%20 == 3
	return c
}

// harness holds the counters the run reports and what it found.
type harness struct {
	limit      int            // the enumeration limit
	enumerated map[string]int // Ψ enumerations, by key
	limitKeys  int            // keys whose Ψ passed the limit
	limitCells int            // cells that skipped the naive comparison
	cells      int            // cells (queries) run
	answered   int            // cells the reachability check answered
	patterns   [2]int         // pattern cells compared with naive, and those the check answered
	differ     [3]int         // cells whose answer differs from naive, by preset
	diffCells  [3]int         // cells compared with naive, by preset
	finals     int            // session finals compared
	schemas    int            // schemas run

	failures []failure // every disagreement of the run
	done     bool      // the run went through the whole corpus
}

// failure is one disagreement: the property that failed, as its check
// names it, and the report of the cell.
type failure struct{ property, msg string }

func newHarness(limit int) *harness {
	return &harness{limit: limit, enumerated: map[string]int{}}
}

var (
	harnessOnce sync.Once
	harnessRun  *harness
)

// runHarness returns the run of the harness, running it on the first
// call. A setup error fails the test that made that call; every other
// caller then fails too, since the run did not finish.
func runHarness(t *testing.T) *harness {
	t.Helper()
	harnessOnce.Do(func() {
		harnessRun = newHarness(oracleEnumLimit)
		harnessRun.runCorpus(t)
	})
	if !harnessRun.done {
		t.Fatal("the harness run stopped before the end of its corpus")
	}
	return harnessRun
}

// runCorpus runs every adapter over the corpus (40 cupid and 15 random
// schemas under -short).
func (h *harness) runCorpus(t *testing.T) {
	if err := os.RemoveAll(failureDir); err != nil {
		t.Fatal(err)
	}
	nOracle, nRand := int64(oracleSchemas), int64(randSchemas)
	if testing.Short() {
		nOracle, nRand = 40, 15
	}
	for i := int64(0); i < nOracle; i++ {
		h.run(t, oracleCase(t, i))
	}
	for i := int64(0); i < nRand; i++ {
		h.run(t, randCase(t, i))
	}
	h.done = true
}

// report fails t with the disagreements whose property names one of
// props, or with every disagreement when props is empty. It prints at
// most maxFailures of them.
func (h *harness) report(t *testing.T, props ...string) {
	t.Helper()
	n := 0
	for _, f := range h.failures {
		if len(props) > 0 && !slices.ContainsFunc(props, func(p string) bool { return strings.Contains(f.property, p) }) {
			continue
		}
		if n++; n <= maxFailures {
			t.Error(f.msg)
		}
	}
	if n > maxFailures {
		t.Errorf("and %d more disagreements", n-maxFailures)
	}
}

// TestOracleHarness fails on every disagreement of the run. Its log
// reports the Ψ enumerations, the cells skipped at the enumeration
// limit, and how many cells Paper() and Safe() answer differently from
// naive (a report; only Exact() is gated on naive).
func TestOracleHarness(t *testing.T) {
	h := runHarness(t)
	h.report(t)
	for key, n := range h.enumerated {
		if n > 1 {
			t.Errorf("Ψ of %s enumerated %d times", key, n)
		}
	}
	if h.answered == 0 {
		t.Error("the reachability check answered no cell of the corpus")
	}
	if h.patterns[0] == 0 || h.patterns[1] == 0 {
		t.Errorf("%d pattern cells compared with naive, %d of them answered by the reachability check: want some of each",
			h.patterns[0], h.patterns[1])
	}
	if h.finals == 0 {
		t.Error("the wire adapter compared no session final")
	}
	t.Logf("%d schemas, %d cells: %d Ψ enumerations (limit %d), %d keys past the limit, %d cells skipped the naive comparison",
		h.schemas, h.cells, len(h.enumerated), h.limit, h.limitKeys, h.limitCells)
	t.Logf("the reachability check answered %d cells, %d of them of the %d pattern cells", h.answered, h.patterns[1], h.patterns[0])
	for _, p := range []int{paper, safe} {
		t.Logf("%s: %d of %d cells compared with naive answer differently (untruncated, under the limit, ablations aside; not gated)",
			presetNames[p], h.differ[p], h.diffCells[p])
	}
	if len(h.failures) > 0 {
		t.Logf("%d disagreements; reproducers of the first %d under %s", len(h.failures), maxFailures, failureDir)
	}
}

// The suites the harness replaced keep their names. Each fails on the
// disagreements whose message names its property: Exact() against
// naive on the cupid base queries, the random single-gap ones and the
// random two-gap ones; annotated queries against the naive answer
// filtered from the base Ψ, and inside the base Ψ (cupid, random
// constrained, random predicate); .* and .+ bit for bit; the frontier;
// the naive comparisons and soundness on a schema with an excluded
// class; the soundness of every preset; Support ⊇ completion edges, of
// Exact() and of naive; AGG*(Ψ, 1) = AGG(Ψ) and the Best of an E = 1
// search.
func TestOracleDifferential(t *testing.T)        { runHarness(t).report(t, "naive, cupid base query") }
func TestExactMatchesNaive(t *testing.T)         { runHarness(t).report(t, "naive, random single gap") }
func TestExactMatchesNaiveMultiGap(t *testing.T) { runHarness(t).report(t, "naive, random two gaps") }
func TestOracleConstrained(t *testing.T)         { runHarness(t).report(t, "cupid annotated query") }
func TestConstrainedExactMatchesNaive(t *testing.T) {
	runHarness(t).report(t, "random constrained gap")
}
func TestPredicateMatchesNaive(t *testing.T)     { runHarness(t).report(t, "random predicate") }
func TestOracleUniversalDegeneracy(t *testing.T) { runHarness(t).report(t, "universal constraint") }
func TestOracleIncrementalPrefix(t *testing.T)   { runHarness(t).report(t, "frontier:") }
func TestExclusionEquivalence(t *testing.T)      { runHarness(t).report(t, "excluded class") }
func TestPaperModeSoundness(t *testing.T)        { runHarness(t).report(t, "sound:") }
func TestSupportCoversCompletions(t *testing.T)  { runHarness(t).report(t, "Support") }
func TestMetamorphicAggStarE1IsAgg(t *testing.T) { runHarness(t).report(t, "AGG(Ψ)") }

// TestOracleEnumLimit runs the harness on one schema under a small
// enumeration limit, so that many of its keys pass it. Their cells skip
// the naive comparison, and the frontier, closure and wire adapters
// compare them with the one-shot instead: the wire adapter each of
// them, through /v1/complete.
func TestOracleEnumLimit(t *testing.T) {
	h := newHarness(300)
	c := randCase(t, 4)
	h.run(t, c)
	h.report(t)
	if h.limitKeys == 0 || len(c.limitCells) == 0 {
		t.Fatalf("%s: no key passed the enumeration limit %d", c.name, h.limit)
	}
	if c.compared["wire"] < len(c.limitCells) {
		t.Errorf("%s: the wire adapter compared %d cells, want the %d past the limit", c.name, c.compared["wire"], len(c.limitCells))
	}
	t.Logf("%s: %d of %d keys past the limit %d; %d cells compared by the frontier, %d closure cells, %d wire cells",
		c.name, h.limitKeys, len(h.enumerated), h.limit, c.compared["frontier"], c.compared["closure"], c.compared["wire"])
}

// run runs every adapter of one schema and fails if an adapter that
// runs on it compared no cell.
func (h *harness) run(t *testing.T, c *hCase) {
	h.schemas++
	adapters := []string{"exact", "sound", "warm"}
	if slices.ContainsFunc(c.queries, func(q hQuery) bool { return q.annotate || len(q.patterns) > 0 }) {
		adapters = append(adapters, "annotations")
	}
	for _, q := range c.queries {
		h.runBase(t, c, q)
	}
	// The fast paths also run wherever a cell skipped the naive
	// comparison, so that no cell goes uncompared.
	limited := len(c.limitCells) > 0
	if c.frontier || limited {
		h.frontier(t, c)
		adapters = append(adapters, "frontier")
	}
	if c.closure || limited {
		h.closure(t, c)
		adapters = append(adapters, "closure", "persist")
	}
	if c.wire || limited {
		h.wire(t, c)
		adapters = append(adapters, "wire")
	}
	for _, a := range adapters {
		if c.compared[a] == 0 {
			h.failures = append(h.failures, failure{a, fmt.Sprintf("%s (%s): adapter %s compared no cell", c.name, c.origin, a)})
		}
	}
}

// failureDir holds the reproducers of a failing run; each run starts
// it afresh. A run writes the first maxFailures of them.
var failureDir = filepath.Join("testdata", "oracle_failures")

const maxFailures = 100

// check is the harness's one comparison. property names what is
// checked, and the query family of the cell where there is one. When
// got differs from want, check records the disagreement and writes the
// reproducer of the cell.
func (h *harness) check(c *hCase, e pathexpr.Expr, opts core.Options, property string, got, want any) bool {
	if reflect.DeepEqual(got, want) {
		return true
	}
	report := fmt.Sprintf("%s:\n got:  %+v\n want: %+v", property, got, want)
	h.failures = append(h.failures, failure{property, fmt.Sprintf("%s %s %v (opts %+v)", report, c.name, e, opts)})
	if len(h.failures) <= maxFailures {
		if err := reproduce(c, e, opts, report); err != nil {
			h.failures = append(h.failures, failure{"reproducer", fmt.Sprintf("reproducer of %s: %v", c.name, err)})
		}
	}
	return false
}

// reproduce writes the schema of c as SDL and appends the cell to its
// reproducer.
func reproduce(c *hCase, e pathexpr.Expr, opts core.Options, report string) error {
	base := filepath.Join(failureDir, c.name)
	text, err := sdl.WriteString(c.s)
	if err == nil {
		if err = os.MkdirAll(failureDir, 0o755); err == nil {
			err = os.WriteFile(base+".sdl", []byte(text), 0o644)
		}
	}
	if err != nil {
		return err
	}
	f, err := os.OpenFile(base+".txt", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = fmt.Fprintf(f, "schema: %s\nexpr: %s\nopts: %+v\n%s\n\n", c.origin, e, opts, report)
	return err
}

// family names the query family of query e, of the given kind, on
// case c (pattern: a random pattern or over one). The checks that
// compare a cell with naive name it.
func family(c *hCase, e pathexpr.Expr, kind int, pattern bool) string {
	var f string
	switch {
	case pattern:
		f = "cupid pattern"
	case c.cupid && kind == queryBase:
		f = "cupid base query"
	case c.cupid:
		f = "cupid annotated query"
	case kind == queryBase && len(e.Steps) > 1:
		f = "random two gaps"
	case kind == queryBase:
		f = "random single gap"
	case e.Steps[len(e.Steps)-1].Pred != "":
		f = "random predicate"
	default:
		f = "random constrained gap"
	}
	return f
}

// psi enumerates Ψ of one base query; limited reports a key past the
// enumeration limit.
func (h *harness) psi(t *testing.T, c *hCase, base pathexpr.Expr) (psi []*pathexpr.Resolved, limited bool) {
	opts := c.presets[exact].opts
	h.enumerated[fmt.Sprintf("%s %s exclude%v", c.name, base, opts.Exclude)]++ // fmt sorts map keys
	psi, err := core.NaivePsi(c.s, base, opts, h.limit)
	if err == core.ErrEnumLimit {
		h.limitKeys++
		return nil, true
	}
	if err != nil {
		t.Fatalf("%s %v: NaivePsi: %v", c.name, base, err)
	}
	return psi, false
}

// runBase runs one base query and every query derived from it, all
// against the one Ψ of the base.
func (h *harness) runBase(t *testing.T, c *hCase, q hQuery) {
	var plain [3]*core.Result
	for p := range c.presets {
		res, err := c.presets[p].cmp.Complete(q.base)
		if err != nil {
			return // the anchor is absent from this schema
		}
		plain[p] = res
	}
	psi, limited := h.psi(t, c, q.base)
	if !limited {
		keys := make([]label.Key, len(psi))
		for i, r := range psi {
			keys[i] = r.Label().Key()
		}
		opts := c.presets[exact].opts
		agg := label.Agg(keys)
		h.check(c, q.base, opts, "exact: AGG*(Ψ, 1) = AGG(Ψ)",
			label.Equal(label.AggStar(keys, 1), agg), true)
		if opts.E == 1 {
			h.check(c, q.base, opts, "exact: Best of an E = 1 search = AGG(Ψ)",
				label.Equal(plain[exact].Best, agg), true)
		}
	}
	members := map[string]bool(nil) // the base Ψ by edge sequence, built on first use
	inBase := func(r *pathexpr.Resolved) bool {
		if limited {
			return r.ConsistentWith(q.base)
		}
		if members == nil {
			members = make(map[string]bool, len(psi))
			for _, m := range psi {
				members[relKey(m.Rels)] = true
			}
		}
		return members[relKey(r.Rels)]
	}
	// naive derives the naive answer of a query over the base from Ψ.
	naive := func(e pathexpr.Expr) *core.Result {
		if limited {
			return nil
		}
		sub, err := core.NaiveFilter(c.s, e, psi)
		if err != nil {
			t.Fatalf("%s %v: NaiveFilter: %v", c.name, e, err)
		}
		return core.NaiveSelect(c.s, sub, c.presets[exact].opts)
	}
	baseNaive := naive(q.base)
	h.runQuery(c, q, q.base, queryBase, baseNaive, plain, nil)
	for _, e := range q.patterns {
		h.runQuery(c, q, e, queryPattern, naive(e), plain, inBase)
	}
	if !q.annotate {
		return
	}
	// A universal constraint compiles away, so its naive answer is the
	// base's.
	last := len(q.base.Steps) - 1
	for _, re := range []string{`.*`, `.+`} {
		e := withStep(q.base, last, func(st *pathexpr.Step) { st.Constraint = re })
		h.runQuery(c, q, e, queryUniversal, baseNaive, plain, inBase)
	}
	var derived []pathexpr.Expr
	for _, re := range constraintsFor(c.s, plain[exact]) {
		derived = append(derived, withStep(q.base, last, func(st *pathexpr.Step) { st.Constraint = re }))
	}
	for _, pr := range c.preds {
		derived = append(derived, withStep(q.base, last, func(st *pathexpr.Step) { st.Pred = pr }))
	}
	for _, e := range derived {
		h.runQuery(c, q, e, queryAnnotated, naive(e), plain, inBase)
	}
}

// The kinds of query runQuery runs over one base.
const (
	queryBase      = iota // the base itself
	queryUniversal        // the base under .* or .+ on its last gap
	queryAnnotated        // the base under a derived constraint or predicate
	queryPattern          // an annotated random pattern over the base
)

// withStep returns a copy of e with step i edited.
func withStep(e pathexpr.Expr, i int, edit func(*pathexpr.Step)) pathexpr.Expr {
	out := pathexpr.Expr{Root: e.Root, Steps: append([]pathexpr.Step(nil), e.Steps...)}
	edit(&out.Steps[i])
	return out
}

// constraintsFor derives regex constraints from one unconstrained
// answer: exact fragment literals, prefix and suffix shapes around
// real edge spellings, a broad alternation, and a never-matching
// pattern, so the product automaton runs on accepting, partially
// matching and dead traversals alike. Each constraint comes once.
func constraintsFor(s *schema.Schema, res *core.Result) []string {
	out := []string{`(c|hp|po|as|sa).*`, `zqx9never`}
	for i, c := range res.Completions {
		if i >= 2 || len(c.Path.Rels) == 0 {
			break
		}
		frag := pathexpr.SpellFragment(s, c.Path.Rels)
		first := s.Rel(c.Path.Rels[0]).Name
		last := s.Rel(c.Path.Rels[len(c.Path.Rels)-1])
		out = append(out,
			regexp.QuoteMeta(frag),
			regexp.QuoteMeta(first)+`.*`,
			`.*`+regexp.QuoteMeta(last.Conn.String()+last.Name),
		)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func relKey(rels []schema.RelID) string {
	b := make([]byte, 0, 4*len(rels))
	for _, r := range rels {
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, ',')
	}
	return string(b)
}

// runQuery runs the kernel adapters on one query e, of the given kind,
// over base query q. naive is its naive answer (nil past the
// enumeration limit) and plain holds the presets' answers to the base;
// inBase, nil for the base itself, tests membership in the base Ψ.
func (h *harness) runQuery(c *hCase, q hQuery, e pathexpr.Expr, kind int, naive *core.Result,
	plain [3]*core.Result, inBase func(*pathexpr.Resolved) bool) {
	h.cells++
	if naive == nil {
		h.limitCells++
	}
	pattern := kind == queryPattern || q.pattern
	excl := "" // marks the naive comparisons and soundness on an Exclude schema
	if len(c.presets[exact].opts.Exclude) > 0 {
		excl = ", excluded class"
	}
	fam := family(c, e, kind, pattern) + excl
	for p := range c.presets {
		opts, cmp := c.presets[p].opts, c.presets[p].cmp
		in := " (" + presetNames[p] + ")"
		res := plain[p]
		if kind != queryBase {
			var err error
			if res, err = cmp.Complete(e); err != nil {
				h.check(c, e, opts, "annotations: compile"+in+", "+fam, err.Error(), "")
				continue
			}
		}
		if kind != queryUniversal { // a universal query is itself a rerun of the base
			warm, err := cmp.Complete(e)
			if err != nil {
				h.check(c, e, opts, "warm: error"+in, err.Error(), "")
				continue
			}
			h.check(c, e, opts, "warm: second run"+in, warm, res)
			c.compared["warm"]++
		}

		var unsound, outside []string
		for _, comp := range res.Completions {
			through := slices.ContainsFunc(comp.Path.Classes[1:], func(cls schema.ClassID) bool { return opts.Exclude[cls] })
			if !comp.Path.Acyclic() || !comp.Path.ConsistentWith(e) || through {
				unsound = append(unsound, comp.Path.String())
			}
			if kind != queryBase && !inBase(comp.Path) {
				outside = append(outside, comp.Path.String())
			}
		}
		h.check(c, e, opts, "sound: acyclic, consistent, clear of Exclude"+in+excl, unsound, []string(nil))
		c.compared["sound"]++
		if kind != queryBase {
			h.check(c, e, opts, "annotations: completions outside the base Ψ"+in+", "+fam, outside, []string(nil))
			if kind == queryUniversal {
				h.check(c, e, opts, "annotations: universal constraint against the base"+in, res, plain[p])
			}
			c.compared["annotations"]++
		}
		if naive == nil { // past the limit: the fast paths compare the cell instead
			if p == exact {
				c.limitCells = append(c.limitCells, oneShot{e: e, res: res})
			}
			continue
		}
		if p != exact {
			// The report counts the presets as they ship: truncated
			// answers and the caution-free ablation are left out.
			if !res.Truncated && opts.Caution != core.CautionOff {
				h.diffCells[p]++
				if !reflect.DeepEqual(res.Strings(), naive.Strings()) {
					h.differ[p]++
				}
			}
			continue
		}
		got, want := core.View(res), core.View(naive)
		got.Best, want.Best = core.KeysSorted(got.Best), core.KeysSorted(want.Best)
		h.check(c, e, opts, "exact: against naive, "+fam, got, want)
		h.check(c, e, opts, "exact: Support covers the completions", supportGap(c.s, res), "")
		h.check(c, e, opts, "exact: naive Support covers the completions", supportGap(c.s, naive), "")
		if res.Stats.Calls == 0 {
			h.answered++
			h.check(c, e, opts, "exact: |Ψ| where the reachability check answers", naive.Stats.Enumerated, 0)
		}
		if pattern {
			h.patterns[0]++
			if res.Stats.Calls == 0 {
				h.patterns[1]++
			}
		}
		c.compared["exact"]++
		if c.wire && kind != queryUniversal && len(c.wireCells) < 16 {
			if pe, err := pathexpr.Parse(e.String()); err == nil && reflect.DeepEqual(pe, e) {
				c.wireCells = append(c.wireCells, oneShot{e: e, res: res})
			}
		}
	}
}

// supportGap describes how res.Support fails to cover the edges of
// every completion ("" when it covers them).
func supportGap(s *schema.Schema, res *core.Result) string {
	if res.Support == nil {
		return "nil Support"
	}
	var missing []schema.RelID
	for _, id := range core.SupportEdges(s, res).IDs() {
		if !res.Support.Has(id) {
			missing = append(missing, id)
		}
	}
	if missing != nil {
		return fmt.Sprintf("completion edges %v outside Support", missing)
	}
	return ""
}

// frontier types anchors out character by character through one
// Frontier per root under Exact(), as a session would: cells
// accumulate across keystrokes. It types the shared attribute names,
// two random anchors and every single-gap cell past the enumeration
// limit, from two random roots and the roots of those cells.
func (h *harness) frontier(t *testing.T, c *hCase) {
	p := c.presets[exact]
	anchors := core.GapAnchors(c.s)
	ctx := context.Background()
	roots := c.roots(2)
	limit := map[string][]string{} // root -> anchors of its single-gap limit cells
	for _, lc := range c.limitCells {
		if root := lc.e.Root; singleGap(lc.e) {
			limit[root] = append(limit[root], lc.e.Steps[0].Name)
			if !slices.Contains(roots, root) {
				roots = append(roots, root)
			}
		}
	}
	for _, root := range roots {
		fr, err := p.cmp.NewFrontier(gap(root, "x"))
		if err != nil {
			continue
		}
		names := []string{"value", "name", "units", anchors[c.r.Intn(len(anchors))], anchors[c.r.Intn(len(anchors))]}
		names = append(names, limit[root]...)
		slices.Sort(names)
		names = slices.Compact(names)
		for _, anchor := range names {
			for l := 1; l <= len(anchor); l++ {
				prefix := anchor[:l]
				e := gap(root, prefix)
				warm, info, werr := fr.Advance(ctx, prefix, nil)
				cold, cerr := p.cmp.CompletePrefixContext(ctx, e)
				if !h.check(c, e, p.opts, "frontier: warm and cold errors", fmt.Sprint(werr), fmt.Sprint(cerr)) || werr != nil {
					break // no anchor matches this prefix
				}
				h.check(c, e, p.opts, "frontier: warm Advance against cold CompletePrefixContext", core.View(warm), core.View(cold))
				if l > 1 {
					h.check(c, e, p.opts, "frontier: cold searches of a refinement", info.Cold, 0)
				}
				if m := fr.Matches(prefix); len(m) == 1 && m[0] == prefix {
					one, err := p.cmp.Complete(e)
					if err != nil {
						t.Fatalf("%s %v: %v", c.name, e, err)
					}
					h.check(c, e, p.opts, "frontier: narrowed Advance against the one-shot", core.View(warm), core.View(one))
				}
				c.compared["frontier"]++
			}
		}
		_, _, err = fr.Advance(ctx, "zz\x00nope", nil)
		h.check(c, gap(root, "zz\x00nope"), p.opts, "frontier: a prefix that matches nothing errs", err != nil, true)
	}
}

// closure builds the all-pairs index of every preset, round-trips it
// through the durable format, and compares every cell of both with
// the kernel one-shot.
func (h *harness) closure(t *testing.T, c *hCase) {
	anchors := core.GapAnchors(c.s)
	for p := range c.presets {
		opts, cmp := c.presets[p].opts, c.presets[p].cmp
		ix, err := closure.Build(context.Background(), c.name, 1, cmp, nil)
		if err != nil {
			t.Fatalf("%s: closure.Build (%s): %v", c.name, presetNames[p], err)
		}
		f, err := persist.Capture(c.name, c.s, opts, 1, 0, ix)
		if err != nil {
			t.Fatalf("%s: Capture: %v", c.name, err)
		}
		dec, err := persist.Decode(f.Encode())
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.name, err)
		}
		restored, err := dec.RestoreIndex(c.s, 2)
		if err != nil {
			t.Fatalf("%s: RestoreIndex: %v", c.name, err)
		}
		roots := len(c.roots(-1))
		h.check(c, pathexpr.Expr{}, opts, "closure: anchors, cells and bytes",
			[]any{ix.Anchors(), ix.Cells(), ix.Bytes() > 0}, []any{len(anchors), roots * len(anchors), true})
		for _, cls := range c.s.Classes() {
			for _, anchor := range anchors {
				e := gap(cls.Name, anchor)
				cell, hit := ix.Lookup(cls.ID, anchor)
				rcell, rhit := restored.Lookup(cls.ID, anchor)
				if cls.Primitive {
					h.check(c, e, opts, "closure: cells of a primitive root", [2]bool{hit, rhit}, [2]bool{})
					continue
				}
				want, err := cmp.Complete(e)
				if err != nil {
					t.Fatalf("%s %v: %v", c.name, e, err)
				}
				h.check(c, e, opts, "closure: cell against the one-shot ("+presetNames[p]+")", cell, want)
				h.check(c, e, opts, "persist: restored cell against the one-shot ("+presetNames[p]+")", rcell, want)
				c.compared["closure"]++
				c.compared["persist"]++
			}
		}
	}
}

// wire answers the case's cells over HTTP under Exact(): every query
// twice through /v1/complete on a kernel server (a search, then a memo
// hit), the unannotated single-gap ones through a closure server, and
// those whose anchor no longer anchor extends as /v1/sessions
// keystrokes. Each answer must render the one-shot answer.
func (h *harness) wire(t *testing.T, c *hCase) {
	opts := c.presets[exact].opts
	kernel := server.New(c.s, nil, opts)
	warmed := server.New(c.s, nil, opts)
	warmed.EnableClosure(1, 0)
	sn, err := warmed.SchemaRegistry().Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	handle := sn.Closure()
	sn.Release()
	select {
	case <-handle.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: closure build did not settle", c.name)
	}
	if st := handle.Status(); st.State != closure.StateReady {
		t.Fatalf("%s: closure %+v, want ready", c.name, st)
	}
	lim := server.DefaultLimits()
	lim.SessionDebounce = -1
	warmed.SetLimits(lim)

	anchors := core.GapAnchors(c.s)
	var keystrokes []oneShot
	for _, wc := range slices.Concat(c.wireCells, c.limitCells) {
		want := render(wc.res.Completions)
		for k, engine := range []string{"search", "memo"} {
			env := postComplete(t, kernel.Handler(), wc.e.String())
			h.check(c, wc.e, opts, "wire: /v1/complete "+engine,
				[]any{env.Meta.Engine, env.Meta.CacheHit, env.completions()}, []any{"search", k == 1, want})
		}
		if singleGap(wc.e) {
			env := postComplete(t, warmed.Handler(), wc.e.String())
			h.check(c, wc.e, opts, "wire: /v1/complete closure",
				[]any{env.Meta.Engine, env.completions()}, []any{"closure", want})
			extended := 0
			for _, a := range anchors {
				if strings.HasPrefix(a, wc.e.Steps[0].Name) {
					extended++
				}
			}
			if extended == 1 {
				keystrokes = append(keystrokes, wc)
			}
		}
		c.compared["wire"]++
	}
	ts := httptest.NewServer(warmed.Handler())
	defer ts.Close()
	cl, err := sessiontest.Dial(ts.URL+"/v1/sessions", 10*time.Second)
	if err != nil {
		t.Fatalf("%s: dial: %v", c.name, err)
	}
	defer cl.Close()
	exprs := make([]string, len(keystrokes))
	for i, wc := range keystrokes {
		exprs[i] = wc.e.String()
	}
	for i, ex := range cl.Type(t, exprs...) {
		wc := keystrokes[i]
		var best []string
		for _, k := range wc.res.Best {
			best = append(best, fmt.Sprintf("%s %d", k.Conn, k.SemLen))
		}
		var gotBest, got []string
		for _, k := range ex.Final.Best {
			gotBest = append(gotBest, fmt.Sprintf("%s %d", k.Conn, k.SemLen))
		}
		for _, cand := range ex.Final.Completions {
			got = append(got, line(cand.Path, cand.Conn, cand.SemLen))
		}
		h.check(c, wc.e, opts, "wire: /v1/sessions final", []any{got, gotBest}, []any{render(wc.res.Completions), best})
		h.finals++
	}
}

// singleGap reports whether e is an unannotated single gap, the query
// shape of the closure and of session keystrokes.
func singleGap(e pathexpr.Expr) bool {
	st := e.Steps
	return len(st) == 1 && st[0].Gap && st[0].Constraint == "" && st[0].Pred == ""
}

// render is the wire form of completions, one line each.
func render(cs []core.Completion) []string {
	var out []string
	for _, c := range cs {
		out = append(out, line(c.Path.String(), c.Label.Conn().String(), c.Label.SemLen()))
	}
	return out
}

func line(path, conn string, semlen int) string { return fmt.Sprintf("%s %s %d", path, conn, semlen) }

// completeEnvelope is the /v1/complete response body.
type completeEnvelope struct {
	Data  server.CompleteResponse `json:"data"`
	Error *server.APIError        `json:"error"`
	Meta  server.Meta             `json:"meta"`
}

// completions renders the envelope's completions like render.
func (env completeEnvelope) completions() []string {
	var out []string
	for _, c := range env.Data.Completions {
		out = append(out, line(c.Path, c.Conn, c.SemLen))
	}
	return out
}

func postComplete(t *testing.T, hd http.Handler, expr string) completeEnvelope {
	t.Helper()
	body, err := json.Marshal(server.CompleteRequest{Expr: expr})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	hd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", strings.NewReader(string(body))))
	var env completeEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error != nil || rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/complete %s: %d %s (%v)", expr, rec.Code, rec.Body, err)
	}
	return env
}
