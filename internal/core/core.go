// Package core implements the path expression completion mechanism of
// Ioannidis & Lashkari, "Incomplete Path Expressions and their
// Disambiguation" (SIGMOD 1994) — the paper's primary contribution.
//
// Given an incomplete path expression such as "ta ~ name", the
// Completer searches the schema graph for the acyclic complete path
// expressions consistent with it and returns those with optimal labels
// under the AGG*/CON path algebra of Sections 3–4, e.g.
//
//	ta@>grad@>student@>person.name
//	ta@>instructor@>teacher@>employee@>person.name
//
// The search is the depth-first Algorithm 2 of Section 4: it prunes
// against the best complete labels found so far (best[T]) and the best
// labels per intermediate node (best[u]), escapes over-pruning with
// caution sets (Section 4.1), tracks paths rather than just labels
// (Section 4.2), applies the Inheritance Semantics Criterion (Section
// 4.3), and generalizes AGG to keep the E lowest semantic lengths
// (Section 4.4). Incomplete expressions with several ~ gaps and
// interleaved explicit steps (the general case of the paper, deferred
// to [17]) are handled by running the same search over a product of
// the schema graph and the expression's step sequence.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"pathcomplete/internal/connector"
	"pathcomplete/internal/gapre"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/pred"
	"pathcomplete/internal/schema"
)

// CautionMode selects how the search escapes the best[u] pruning of
// Algorithm 2 when AGG does not distribute over CON.
type CautionMode int

const (
	// CautionPaper uses the caution sets exactly as defined in Section
	// 4.1: a blocked label is re-explored when a better label at the
	// node can diverge into an incomparable label under some extension.
	CautionPaper CautionMode = iota
	// CautionExtendedMode additionally re-explores when a better label
	// can diverge into an equal or even reversed label — divergences
	// our reconstructed ≺ admits but the paper's definition does not
	// cover. See connector.CautionExtended.
	CautionExtendedMode
	// CautionOff disables the escape entirely (an ablation; Algorithm 1
	// behaviour, which can lose plausible answers).
	CautionOff
)

// Options configure a Completer. The zero value is a usable
// configuration equivalent to Paper() except that every knob is at its
// paper default (E=1 via normalization, paper caution sets, no slack).
type Options struct {
	// E is the AGG* parameter of Section 4.4: how many of the lowest
	// distinct semantic lengths to keep among incomparable connectors.
	// Values below 1 are treated as 1.
	E int

	// Caution selects the best[u] escape-hatch mode.
	Caution CautionMode

	// SemLenSlack widens the best[u] pruning test by one unit of
	// semantic length. A path label dominated on semantic length alone
	// can catch up by at most one when the two paths are extended by a
	// common suffix (the junction of the restructuring rules), so the
	// paper's test without slack can lose equally-optimal paths.
	SemLenSlack bool

	// NoPreemption disables the Inheritance Semantics Criterion of
	// Section 4.3.
	NoPreemption bool

	// DisableBestT disables pruning against the best complete labels
	// (line 9 of Algorithm 2). Ablation only.
	DisableBestT bool

	// DisableBestU disables pruning against per-node best labels
	// (lines 10–12 of Algorithm 2). Ablation only.
	DisableBestU bool

	// NoEarlyTarget disables the out-of-order exploration of edges
	// that complete the expression (line 2 of Algorithm 2). Ablation
	// only.
	NoEarlyTarget bool

	// Exclude lists classes that may not appear anywhere on a
	// completion except as its root — the domain-specific knowledge of
	// Section 5.2 ("auxiliary classes ... without much inherent
	// semantic content").
	Exclude map[schema.ClassID]bool

	// MaxPaths caps the number of optimal completions retained (0
	// means unlimited). The cap exists to bound memory on adversarial
	// schemas; the paper reports 2–3 answers per query at E=1.
	MaxPaths int

	// PreferSpecific enables the specificity discrimination sketched
	// in the paper's conclusions: psychological studies indicate that
	// "when confronted with two homonymous concepts of widely
	// differing sizes, humans tend to prefer the more specific or
	// focused concept". Among completions whose labels tie, only those
	// traversing the most specific classes (greatest average Isa depth)
	// are kept.
	PreferSpecific bool

	// MaxCalls caps the number of recursive traverse calls (0 means
	// unlimited) — an interactive-latency budget in the spirit of the
	// paper's Section 5.4 concern that "a user should not wait too
	// long". When the budget is exhausted the search stops with
	// StopReason max_calls; the completions found so far are valid
	// consistent paths but optimality is no longer guaranteed. A query
	// the reachability check answers makes no call, so no budget trips
	// on it.
	MaxCalls int

	// Deadline caps the wall-clock time of one search (0 means
	// unlimited). It composes with MaxCalls and with any deadline or
	// cancellation on the context passed to CompleteContext: the first
	// bound to trip stops the search, which returns the valid
	// best-so-far completions with Result.Aborted set and StopReason
	// identifying the bound — graceful degradation, never an error.
	// The clock is checked every stopCheckInterval traverse calls, so
	// overrun is bounded by a few microseconds of search work.
	Deadline time.Duration

	// Tracer, when non-nil, receives a structured event at every
	// decision point of the search (node entry, prunes, caution-set
	// rescues, offers, preemptions) — see Tracer and TraceRecorder.
	// A tracer is invoked from the goroutine running the search and
	// must not be shared between concurrent queries: a Completer used
	// concurrently should keep Tracer nil and copy its Options per
	// traced query. The nil default costs one untaken branch per event
	// site (BenchmarkTracerOverhead). A query the reachability check
	// answers is not traversed and emits no event.
	Tracer Tracer
}

// Paper returns the configuration matching the published Algorithm 2:
// per-node best[u] pruning with paper-definition caution sets and no
// semantic-length slack.
func Paper() Options { return Options{E: 1, Caution: CautionPaper} }

// Exact returns the configuration under which the search provably
// returns the definitional answer set (the same completions as the
// naive enumerator): only the best[T] bound prunes. Per-node best[u]
// pruning — with or without caution sets — is inherently heuristic on
// simple paths: the prefix that dominates at a node may be unable to
// reuse the pruned prefix's completing suffix, because that suffix
// revisits classes on the dominating prefix. (The best[T] bound is
// safe because it compares against realized complete labels, and
// extension can never improve a label: connector rank and semantic
// length are both monotone under CON.)
func Exact() Options { return Options{E: 1, DisableBestU: true} }

// Safe returns the near-exact heuristic configuration: per-node
// pruning stays on, but with the extended caution sets and the
// semantic-length slack, which close every label-divergence gap the
// paper's conditions leave open. What remains heuristic is only the
// suffix-feasibility effect described at Exact. On a 2,760-cell sample
// of the paper-scale cupid92 schema (every root against every ninth gap
// anchor), Safe's answer differs from Exact's on 3 cells and Paper's on
// 14, at about a fiftieth of Exact's calls; on those 3 cells Safe
// returns no completion where Exact returns ten
// (TestPerNodePruningLosesAnswersAtPaperScale).
func Safe() Options { return Options{E: 1, Caution: CautionExtendedMode, SemLenSlack: true} }

func (o Options) e() int {
	if o.E < 1 {
		return 1
	}
	return o.E
}

// StopReason identifies which bound stopped a search before it
// exhausted the space. The empty value means the search ran to
// completion and the result is the full optimal answer set.
type StopReason string

const (
	// StopNone: the search ran to completion.
	StopNone StopReason = ""
	// StopMaxCalls: the Options.MaxCalls budget was exhausted.
	StopMaxCalls StopReason = "max_calls"
	// StopDeadline: the Options.Deadline wall-clock budget or the
	// context's deadline expired mid-search.
	StopDeadline StopReason = "deadline"
	// StopCanceled: the context passed to CompleteContext was canceled.
	StopCanceled StopReason = "canceled"
)

// stopCheckInterval is how often (in traverse calls) the engine
// consults the wall clock and the context's done channel. The check is
// amortized so the common case — Background context, no deadline —
// costs one untaken branch per call and stays within the <2% tracing
// overhead budget (BenchmarkTracerOverhead, BenchmarkStopCheckOverhead).
const stopCheckInterval = 64

// stopCheckMask lets the engine test Calls&stopCheckMask == 0 instead
// of a modulo; stopCheckInterval must stay a power of two.
const stopCheckMask = stopCheckInterval - 1

// Stats reports traversal effort, the quantities behind Figure 7 of
// the paper.
type Stats struct {
	// Calls counts invocations of the recursive traverse routine (one
	// per explored node state), the paper's per-query cost metric. It
	// is 0 when the reachability check in front of the search answers
	// the query (no completing move is reachable, so nothing is
	// traversed; see Completer.search).
	Calls int
	// Offers counts complete consistent paths handed to update().
	Offers int
	// PrunedBestT counts children skipped by the best[T] bound.
	PrunedBestT int
	// PrunedBestU counts children skipped by the best[u] test.
	PrunedBestU int
	// CautionSaves counts children that failed the best[u] test but
	// were explored anyway because of a caution-set intersection.
	CautionSaves int
	// Enumerated is set by NaiveComplete: the total number of acyclic
	// consistent completions (|Ψ| of Section 3).
	Enumerated int
}

// Completion is one optimal complete path expression together with its
// label.
type Completion struct {
	Path  *pathexpr.Resolved
	Label label.Label
}

// String renders the completion as "expr  [conn, semlen]".
func (c Completion) String() string {
	return fmt.Sprintf("%s  %s", c.Path.String(), c.Label.String())
}

// Result is the outcome of completing one incomplete path expression.
type Result struct {
	// Completions holds the optimal consistent completions, sorted by
	// label (shortest semantic length first) and then lexically.
	Completions []Completion
	// Best holds the optimal labels (the contents of best[T]).
	Best []label.Key
	// Stats reports traversal effort.
	Stats Stats
	// Truncated reports that MaxPaths discarded completions.
	Truncated bool
	// Aborted reports that some bound (MaxCalls, Deadline, or context
	// cancellation) stopped the search before it exhausted the space.
	// The completions are valid consistent paths — the best found so
	// far — but optimality and completeness are not guaranteed.
	Aborted bool
	// StopReason identifies the bound that stopped the search
	// (StopNone when the search ran to completion).
	StopReason StopReason
	// Support is the union of the edge sets of every path found with an
	// optimal label, taken BEFORE preemption, specificity filtering, and
	// truncation — so it covers witnesses of Best that Completions does
	// not carry. Under the exact search (DisableBestU) it is the
	// invalidation footprint of the answer: as long as the schema's
	// classes are unchanged, no edges were added, and no Support edge
	// was removed or re-labeled, the answer (Completions, order, labels,
	// and Best) is still exactly correct — removals elsewhere only
	// shrink Ψ without touching any optimal-key witness. Under best[u]
	// pruning it is not: a removed edge outside Support can unblock a
	// pruned prefix and change the answer (see closure.BuildReusing). A
	// Truncated or Aborted result's Support is incomplete and must not
	// be used for reuse decisions. Nil for merged (frontier) results;
	// results restored from durable snapshots carry it (persisted since
	// PCSNAP02).
	Support EdgeSet
}

// Exprs returns the completions as plain expressions, in result order.
func (r *Result) Exprs() []pathexpr.Expr {
	out := make([]pathexpr.Expr, len(r.Completions))
	for i, c := range r.Completions {
		out[i] = c.Path.Expr()
	}
	return out
}

// Strings returns the completions rendered in query syntax, in result
// order.
func (r *Result) Strings() []string {
	out := make([]string, len(r.Completions))
	for i, c := range r.Completions {
		out[i] = c.Path.String()
	}
	return out
}

// Completer completes incomplete path expressions over one schema.
// A Completer's configuration is immutable and it is safe for
// concurrent use. Internally it keeps one pattern-independent base
// table of transitions, built on first use, and compiles each query's
// few override rows over it (see compiled.go); search engines, and the
// scratch of the reachability check each search starts with, are
// recycled through a pool, so repeated queries run allocation-free on
// the hot path.
type Completer struct {
	s    *schema.Schema
	opts Options

	baseOnce sync.Once
	base     *baseTable // see baseTable; nil until the first search
	pool     sync.Pool  // recycled *engine state, sized to s
}

// New returns a Completer for the given schema and options.
func New(s *schema.Schema, opts Options) *Completer {
	return &Completer{s: s, opts: opts}
}

// Schema returns the schema the completer searches.
func (c *Completer) Schema() *schema.Schema { return c.s }

// Options returns the completer's configuration.
func (c *Completer) Options() Options { return c.opts }

// Complete disambiguates the incomplete path expression e: it returns
// the acyclic complete path expressions consistent with e whose labels
// are optimal under AGG* (Section 3), with the Inheritance Semantics
// Criterion applied. A complete input is returned unchanged (resolved)
// if it is valid. It is CompleteContext with a background context.
func (c *Completer) Complete(e pathexpr.Expr) (*Result, error) {
	return c.CompleteContext(context.Background(), e)
}

// CompleteContext is Complete under a context: cancellation or a
// deadline — whichever of the context's deadline and Options.Deadline
// is sooner — stops the search gracefully mid-traversal, returning the
// valid best-so-far completions with Result.Aborted and StopReason set
// rather than an error. A nil or Background context with no Deadline
// option keeps the uninstrumented fast path of Complete. A query with
// no reachable completing move is answered before any traversal, so
// it gets the exact empty answer even under a done context.
func (c *Completer) CompleteContext(ctx context.Context, e pathexpr.Expr) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !e.Incomplete() {
		r, err := pathexpr.Resolve(c.s, e)
		if err != nil {
			return nil, err
		}
		// A complete expression with segment predicates is still subject
		// to schema-level admissibility: a step whose end class cannot
		// carry the attribute has an empty (not invalid) answer.
		for i, st := range e.Steps {
			if st.Pred == "" {
				continue
			}
			p, perr := pred.Parse(st.Pred)
			if perr != nil {
				return nil, fmt.Errorf("core: segment predicate %q: %w", st.Pred, perr)
			}
			if !predAdmits(c.s, p, r.Classes[i+1]) {
				return &Result{}, nil
			}
		}
		return &Result{
			Completions: []Completion{{Path: r, Label: r.Label()}},
			Best:        []label.Key{r.Label().Key()},
			Support:     EdgesOf(c.s, r.Rels),
		}, nil
	}
	pat, err := compile(c.s, e)
	if err != nil {
		return nil, err
	}
	return c.search(ctx, pat, nil), nil
}

// search runs one compiled-pattern search on a pooled engine, which
// moves over the index cp (pat's own, compiled here, when cp is nil).
// The engine's reachability check (canComplete) runs first: a pattern
// with no reachable completing move gets the empty Result without a
// traversal. Otherwise the engine runs Algorithm 2.
func (c *Completer) search(ctx context.Context, pat *pattern, cp *compiled) *Result {
	if cp == nil {
		cp = c.compiledFor(pat)
	}
	en := c.getEngineFor(ctx, pat, cp)
	var res *Result
	if en.canComplete() {
		res = en.run()
	} else {
		res = en.assemble()
	}
	c.putEngine(en)
	return res
}

// CompleteToClass disambiguates the node-to-node form of Section 3:
// it finds the optimal acyclic paths from the root class to the target
// class, both given by name.
func (c *Completer) CompleteToClass(root, target string) (*Result, error) {
	return c.CompleteToClassContext(context.Background(), root, target)
}

// CompleteToClassContext is CompleteToClass under a context, with the
// same graceful-degradation contract as CompleteContext.
func (c *Completer) CompleteToClassContext(ctx context.Context, root, target string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rc, ok := c.s.ClassByName(root)
	if !ok {
		return nil, fmt.Errorf("core: unknown root class %q", root)
	}
	if rc.Primitive {
		return nil, fmt.Errorf("core: root class %q is primitive", root)
	}
	tc, ok := c.s.ClassByName(target)
	if !ok {
		return nil, fmt.Errorf("core: unknown target class %q", target)
	}
	pat := &pattern{root: rc.ID, segs: []segment{{kind: segGapClass, class: tc.ID}}}
	return c.search(ctx, pat, nil), nil
}

// segKind discriminates pattern segments.
type segKind int

const (
	segExplicit segKind = iota // one relationship with a given name and connector
	segGapName                 // ~name: a path whose last relationship is named name
	segGapClass                // a path ending at a given class (node-to-node form)
)

// segment is one step of the compiled pattern.
type segment struct {
	kind segKind
	conn connector.Connector // segExplicit
	name string              // segExplicit, segGapName
	// class is the target class for segGapClass. For segGapName it is
	// the class named name, if one exists: since relationship names
	// default to their target class name (Section 2.1), a gap anchored
	// on a class name also ends at any edge into that class.
	class schema.ClassID

	// constraint is the regex source of a ~(RE)~ gap ("" when
	// unconstrained) and dfa its determinization over this schema's
	// edge alphabet; the search runs the product of the schema graph
	// and this automaton, so pruning happens inside Algorithm 2 rather
	// than as a post-filter. A constraint whose automaton accepts every
	// non-empty fragment is dropped at compile time (dfa nil,
	// constraint ""), which makes e.g. ~(.*)~name bit-for-bit identical
	// to the unconstrained ~name — same pattern, same compiled index,
	// same Stats.
	constraint string
	dfa        *gapre.Machine
	// predSrc is the canonical source of a [attr op literal] predicate
	// on this segment ("" when none) and predOK its schema-level
	// admissibility per class: predOK[c] is false exactly when objects
	// of class c are predicate-false by construction (the class cannot
	// carry the attribute with a compatible primitive type), so edges
	// ending the segment at such classes are pruned during the search.
	predSrc string
	predOK  []bool
}

// pattern is an incomplete path expression compiled against a schema:
// a root class plus a segment sequence. The search runs over states
// (class, segment index); reaching segment index len(segs) completes a
// path.
//
// When any segment carries a regex constraint the search state widens
// to (class, segment, automaton state): cols[i] is the column offset of
// segment i in the widened best[u] table and totalCols the table width
// per class (an unconstrained segment occupies one column, a
// constrained one as many columns as its automaton has states). cols is
// nil for fully unconstrained patterns, keeping their table layout —
// and the allocation-free hot path — byte-identical to before.
type pattern struct {
	root schema.ClassID
	segs []segment

	cols      []int32
	totalCols int
}

// annotated reports whether any segment carries a regex constraint or a
// pushed-down predicate.
func (p *pattern) annotated() bool {
	for i := range p.segs {
		if p.segs[i].constraint != "" || p.segs[i].predSrc != "" {
			return true
		}
	}
	return false
}

// stripped returns a copy of the pattern with every constraint and
// predicate removed — the unconstrained pattern whose answer set the
// annotated search is a filter of. Used by the naive reference.
func (p *pattern) stripped() *pattern {
	sp := &pattern{root: p.root, segs: make([]segment, len(p.segs))}
	copy(sp.segs, p.segs)
	for i := range sp.segs {
		sp.segs[i].constraint = ""
		sp.segs[i].dfa = nil
		sp.segs[i].predSrc = ""
		sp.segs[i].predOK = nil
	}
	return sp
}

// compile checks the expression against the schema and builds the
// pattern.
func compile(s *schema.Schema, e pathexpr.Expr) (*pattern, error) {
	rc, ok := s.ClassByName(e.Root)
	if !ok {
		return nil, fmt.Errorf("core: unknown root class %q", e.Root)
	}
	if rc.Primitive {
		return nil, fmt.Errorf("core: root class %q is primitive", e.Root)
	}
	pat := &pattern{root: rc.ID}
	for _, st := range e.Steps {
		if st.Gap {
			seg, err := gapSegment(s, st.Name)
			if err != nil {
				return nil, err
			}
			seg.constraint = st.Constraint
			seg.predSrc = st.Pred
			pat.segs = append(pat.segs, seg)
			continue
		}
		pat.segs = append(pat.segs, segment{kind: segExplicit, conn: st.Conn, name: st.Name, predSrc: st.Pred})
	}
	if err := annotate(s, pat); err != nil {
		return nil, err
	}
	return pat, nil
}

// annotate compiles the pattern's regex constraints to automata over
// the schema's edge alphabet and its predicates to per-class
// admissibility tables, then lays out the widened best[u] columns.
// Universal constraints (automata accepting every non-empty fragment,
// e.g. .* or .+) are dropped entirely, normalizing the pattern to its
// unconstrained identity.
func annotate(s *schema.Schema, pat *pattern) error {
	var first, rest []string
	for i := range pat.segs {
		seg := &pat.segs[i]
		if seg.constraint != "" {
			rx, err := gapre.Compile(seg.constraint)
			if err != nil {
				return fmt.Errorf("core: gap constraint %q: %w", seg.constraint, err)
			}
			if first == nil {
				first, rest = vocabulary(s)
			}
			m, err := gapre.Determinize(rx, first, rest)
			if err != nil {
				return fmt.Errorf("core: gap constraint %q: %w", seg.constraint, err)
			}
			if m.Universal() {
				seg.constraint = ""
			} else {
				seg.dfa = m
			}
		}
		if seg.predSrc != "" {
			p, err := pred.Parse(seg.predSrc)
			if err != nil {
				return fmt.Errorf("core: segment predicate %q: %w", seg.predSrc, err)
			}
			seg.predOK = make([]bool, s.NumClasses())
			for _, cls := range s.Classes() {
				seg.predOK[cls.ID] = predAdmits(s, p, cls.ID)
			}
		}
	}
	constrained := false
	for i := range pat.segs {
		if pat.segs[i].dfa != nil {
			constrained = true
			break
		}
	}
	if constrained {
		pat.cols = make([]int32, len(pat.segs))
		off := int32(0)
		for i := range pat.segs {
			pat.cols[i] = off
			if d := pat.segs[i].dfa; d != nil {
				off += int32(d.NumStates())
			} else {
				off++
			}
		}
		pat.totalCols = int(off)
	}
	return nil
}

// vocabulary returns the gap-spelling tokens of every schema edge, by
// RelID: first[id] is the edge's name (its token as a gap's first
// edge), rest[id] its connector symbol followed by its name. The rest
// tokens are cut from one shared string, so a constrained query pays
// three allocations for the vocabulary, not one per edge.
func vocabulary(s *schema.Schema) (first, rest []string) {
	n := s.NumRels()
	first, rest = make([]string, n), make([]string, n)
	size := 0
	for id := 0; id < n; id++ {
		rel := s.Rel(schema.RelID(id))
		size += rel.Conn.StringLen() + len(rel.Name)
	}
	var b strings.Builder
	b.Grow(size)
	for id := 0; id < n; id++ {
		rel := s.Rel(schema.RelID(id))
		b.WriteString(rel.Conn.String())
		b.WriteString(rel.Name)
	}
	spelled, off := b.String(), 0
	for id := 0; id < n; id++ {
		rel := s.Rel(schema.RelID(id))
		end := off + rel.Conn.StringLen() + len(rel.Name)
		first[id], rest[id] = rel.Name, spelled[off:end]
		off = end
	}
	return first, rest
}

// predAdmits reports whether objects of class cls could ever satisfy
// the predicate. It mirrors the evaluator exactly (objstore attribute
// resolution plus pred.Compare coercion): "self" requires the class
// itself to be a type-compatible primitive; any other attribute must
// resolve — on the class or, inherited, on a superclass — to an
// attribute edge whose primitive target is type-compatible with the
// literal. Everything else is predicate-false by construction, so the
// search may prune it.
func predAdmits(s *schema.Schema, p *pred.Predicate, cls schema.ClassID) bool {
	allowed := p.AllowedPrimitives()
	if p.Attr == "self" {
		c := s.Class(cls)
		if !c.Primitive {
			return false
		}
		for _, n := range allowed {
			if c.Name == n {
				return true
			}
		}
		return false
	}
	rel, ok := s.OutRel(cls, p.Attr)
	if !ok {
		for _, super := range s.Supers(cls) {
			if rel, ok = s.OutRel(super, p.Attr); ok {
				break
			}
		}
	}
	if !ok {
		return false
	}
	to := s.Class(rel.To)
	if !to.Primitive {
		return false
	}
	for _, n := range allowed {
		if to.Name == n {
			return true
		}
	}
	return false
}
