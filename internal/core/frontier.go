package core

// Prefix completion: the keystroke-level query shape of an interactive
// session. While the user is mid-identifier — "ta~n", "ta~na" — the
// final gap anchor is not yet a name the schema knows, so Complete
// cannot run; what the interface wants is the union of answers over
// every anchor the typed prefix could still become. A Frontier holds
// exactly that state for one base expression: the sorted anchor
// universe (GapAnchors), one kernel Result per anchor already
// explored (the "cell"), and a merge that folds matching cells into
// one ranked answer.
//
// The resumability argument is containment, not engine surgery: the
// anchors matching prefix p+c are a subset of those matching p, so a
// refinement keystroke re-merges cached cells and runs zero traverse
// calls — the search "restarts from the previous frontier" in the
// sense that every per-anchor search it would need has already been
// run and memoized under the previous, shorter prefix. A backspace
// widens the anchor range and computes only the cells not yet cached.
// Each cell is produced by CompleteContext — the exact serving
// dispatch — so a cell is bit-for-bit the one-shot answer for its
// anchor, and the merge is deterministic and order-independent, which
// is what makes the incremental path differential-testable against
// CompletePrefixContext (the cold one-shot reference below).

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// CellSource supplies a precomputed cell for one anchor — the closure
// index fast path. A source result must be bit-for-bit the Result
// CompleteContext would produce for the anchor (internal/closure
// guarantees this by building cells through the serving dispatch);
// returning ok=false falls back to the kernel.
type CellSource func(anchor string) (*Result, bool)

// AdvanceInfo reports how one Advance obtained its cells — the
// observable evidence that refinement reuses prior traversal state.
type AdvanceInfo struct {
	// Anchors is the number of anchors the prefix matched.
	Anchors int
	// Reused counts cells served from the frontier's cache (zero
	// traverse calls).
	Reused int
	// Source counts cells served by the CellSource (closure index).
	Source int
	// Cold counts cells computed by a fresh kernel search this call.
	Cold int
	// Calls is the total traverse-call cost of this Advance: the sum
	// of Stats.Calls over its cold cells. A pure refinement reports 0.
	Calls int
}

// Frontier is the resumable per-anchor completion state for one base
// expression whose final step is a ~ gap with a varying anchor. It is
// NOT safe for concurrent use; a session owns one frontier at a time.
type Frontier struct {
	cmp     *Completer
	root    string
	prior   []pathexpr.Step // steps before the final gap, fixed
	anchors []string        // sorted anchor universe of the schema
	cells   map[string]*Result
	source  CellSource
}

// NewFrontier builds a frontier for e, whose final step must be a ~
// gap; the gap's name is ignored (Advance supplies the typed prefix).
// Earlier steps are validated the way compile would: the root must be
// a known non-primitive class and every earlier gap must name a known
// anchor. Explicit steps are checked at search time, as in compile.
func (c *Completer) NewFrontier(e pathexpr.Expr) (*Frontier, error) {
	if len(e.Steps) == 0 || !e.Steps[len(e.Steps)-1].Gap {
		return nil, fmt.Errorf("core: frontier requires an expression ending in a ~ gap, got %q", e.String())
	}
	// Constrained gaps and segment predicates are one-shot query
	// features: a frontier varies the final anchor under a fixed base,
	// and its cell cache is keyed by anchor alone, so annotations
	// anywhere in the expression would silently alias cells.
	for _, st := range e.Steps {
		if st.Constraint != "" || st.Pred != "" {
			return nil, fmt.Errorf("core: frontier does not support constrained or predicate steps, got %q", e.String())
		}
	}
	rc, ok := c.s.ClassByName(e.Root)
	if !ok {
		return nil, fmt.Errorf("core: unknown root class %q", e.Root)
	}
	if rc.Primitive {
		return nil, fmt.Errorf("core: root class %q is primitive", e.Root)
	}
	prior := make([]pathexpr.Step, len(e.Steps)-1)
	copy(prior, e.Steps[:len(e.Steps)-1])
	for _, st := range prior {
		if st.Gap {
			if _, err := gapSegment(c.s, st.Name); err != nil {
				return nil, err
			}
		}
	}
	return &Frontier{
		cmp:     c,
		root:    e.Root,
		prior:   prior,
		anchors: GapAnchors(c.s),
		cells:   make(map[string]*Result),
	}, nil
}

// SetCellSource attaches a precomputed-cell source (nil detaches).
// Only cells not already cached consult it.
func (f *Frontier) SetCellSource(src CellSource) { f.source = src }

// Matches returns a read-only view of the anchors the typed prefix
// can still become, in sorted order — a contiguous range of the
// sorted anchor universe.
func (f *Frontier) Matches(prefix string) []string {
	lo := sort.SearchStrings(f.anchors, prefix)
	hi := lo
	for hi < len(f.anchors) && strings.HasPrefix(f.anchors[hi], prefix) {
		hi++
	}
	return f.anchors[lo:hi]
}

// Cells reports the number of per-anchor results currently cached.
func (f *Frontier) Cells() int { return len(f.cells) }

// exprFor materializes the complete per-anchor expression: the base
// with the final gap anchored on anchor.
func (f *Frontier) exprFor(anchor string) pathexpr.Expr {
	steps := make([]pathexpr.Step, 0, len(f.prior)+1)
	steps = append(steps, f.prior...)
	steps = append(steps, pathexpr.Step{Gap: true, Name: anchor})
	return pathexpr.Expr{Root: f.root, Steps: steps}
}

// Advance completes the expression under the typed prefix: every
// matching anchor's cell is obtained (cache, source, or a fresh
// kernel search), emit — when non-nil — is invoked once per anchor in
// sorted order as its cell becomes available (the streamed batches of
// a session), and the cells are merged into one ranked Result.
//
// A prefix matching no anchor is an error mirroring compile's unknown-
// anchor wording. A cold cell aborted by a bound (context cancel or
// deadline) is never cached — a later Advance with a fuller budget
// must recompute it — and aborts the sweep: the merged result carries
// the partial answer with Aborted and the cell's StopReason, exactly
// like a one-shot search stopped by the same bound.
func (f *Frontier) Advance(ctx context.Context, prefix string, emit func(anchor string, res *Result, reused bool)) (*Result, AdvanceInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	matches := f.Matches(prefix)
	if len(matches) == 0 {
		return nil, AdvanceInfo{}, fmt.Errorf(
			"core: no relationship or class with name prefix %q anywhere in schema %s",
			prefix, f.cmp.s.Name())
	}
	info := AdvanceInfo{Anchors: len(matches)}
	merged := make([]*Result, 0, len(matches))
	aborted := false
	var stop StopReason
	for _, anchor := range matches {
		res, ok := f.cells[anchor]
		reused := ok
		if !ok && f.source != nil {
			if sres, hit := f.source(anchor); hit {
				res, ok = sres, true
				info.Source++
				f.cells[anchor] = res
			}
		}
		if !ok {
			var err error
			res, err = f.cmp.CompleteContext(ctx, f.exprFor(anchor))
			if err != nil {
				// Unreachable for a gap-final expression over a matching
				// anchor (compile accepts it by construction), but a cell
				// source bug or future shape must not be silent.
				return nil, info, err
			}
			info.Cold++
			info.Calls += res.Stats.Calls
			if res.Aborted {
				// Partial cell: do not cache, stop sweeping.
				merged = append(merged, res)
				if emit != nil {
					emit(anchor, res, false)
				}
				aborted, stop = true, res.StopReason
				break
			}
			f.cells[anchor] = res
		} else if reused {
			info.Reused++
		}
		merged = append(merged, res)
		if emit != nil {
			emit(anchor, res, reused)
		}
	}
	out := f.merge(merged)
	if aborted {
		out.Aborted = true
		out.StopReason = stop
	}
	out.Stats = Stats{Calls: info.Calls}
	for _, r := range merged {
		if r.Truncated {
			out.Truncated = true
		}
	}
	return out, info, nil
}

// merge folds per-anchor cells into one ranked Result: the optimal
// label keys of every cell folded into one label.Packed set (order-
// independent — Insert is a fold of AggStar), completions filtered by
// membership in the merged best set, deduplicated by edge sequence
// (two anchors — a relationship name and a class name sharing the
// prefix — can admit the same concrete path), and sorted into the
// kernel's result order (sortCompletions). Preemption is applied within each
// cell by the kernel, never across cells: cells answer different
// anchors, and the cross-anchor semantics of a prefix query is
// defined as this merge (CompletePrefixContext is the same merge, so
// incremental and one-shot answers agree by construction).
func (f *Frontier) merge(cells []*Result) *Result {
	best := label.NewPacked(f.cmp.opts.e())
	for _, r := range cells {
		for _, k := range r.Best {
			best.Insert(k)
		}
	}
	type seenEntry struct {
		rels []schema.RelID
	}
	seen := make(map[uint64][]seenEntry)
	var found []Completion
	for _, r := range cells {
		for _, c := range r.Completions {
			if !best.Fits(c.Label.Key()) {
				continue
			}
			rels := c.Path.Rels
			var sig uint64
			if len(rels) > 0 {
				sig = sigOf(rels[:len(rels)-1], rels[len(rels)-1])
			}
			dup := false
			for _, s := range seen[sig] {
				if relsEqual(s.rels, rels) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[sig] = append(seen[sig], seenEntry{rels: rels})
			found = append(found, c)
		}
	}
	sortCompletions(found)
	return &Result{Completions: found, Best: best.AppendKeys(make([]label.Key, 0, best.Len()))}
}

// CompletePrefixContext is the one-shot reference for prefix
// completion: a fresh Frontier advanced once, treating the final gap
// step's name as the typed prefix. It defines the answer the
// incremental session path must reproduce for every keystroke — the
// differential oracle lane in oracle_test.go locks the equality.
// When the prefix matches exactly one anchor equal to itself, the
// answer's completions, labels, and best set coincide with
// CompleteContext's (the merge of one cell is the cell).
func (c *Completer) CompletePrefixContext(ctx context.Context, e pathexpr.Expr) (*Result, error) {
	fr, err := c.NewFrontier(e)
	if err != nil {
		return nil, err
	}
	res, _, err := fr.Advance(ctx, e.Steps[len(e.Steps)-1].Name, nil)
	return res, err
}
