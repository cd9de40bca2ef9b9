package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pathcomplete/internal/gapre"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// This file implements the definitional reference in three steps:
// enumerate the set Ψ of ALL valid acyclic complete path expressions
// consistent with an incomplete expression's unannotated base
// (Section 3), keep the members that satisfy its annotations, then
// select Ψ_opt with AGG* and the Inheritance Semantics Criterion. It
// is the oracle of the differential harness (which enumerates Ψ once
// per base query and runs the later steps per query), the baseline of
// the benchmark suite, and the source of the paper's in-text statistic
// that an average of over 500 acyclic path expressions are consistent
// with each incomplete expression.

// ErrEnumLimit is returned when enumeration exceeds the caller's
// limit.
var ErrEnumLimit = fmt.Errorf("core: consistent-path enumeration limit exceeded")

// EnumerateConsistent returns every acyclic complete path expression
// consistent with e, in no particular order. Excluded classes (if any
// are configured in opts) are respected so that the enumeration stays
// comparable with the pruned search. limit > 0 aborts with
// ErrEnumLimit once more than limit paths are found; it bounds the
// enumeration of e's unannotated base.
func EnumerateConsistent(s *schema.Schema, e pathexpr.Expr, opts Options, limit int) ([]*pathexpr.Resolved, error) {
	pat, err := compile(s, e)
	if err != nil {
		return nil, err
	}
	psi, err := enumerate(s, pat.stripped(), opts, limit)
	if err != nil {
		return nil, err
	}
	return filterAnnotated(s, pat, psi)
}

// NaiveComplete computes the definitional answer: all consistent
// acyclic completions are enumerated, ranked with AGG*, and filtered
// by the Inheritance Semantics Criterion. The result's
// Stats.Enumerated reports |Ψ|, the total number of consistent acyclic
// completions. limit > 0 bounds the enumeration (ErrEnumLimit on
// overflow).
func NaiveComplete(s *schema.Schema, e pathexpr.Expr, opts Options, limit int) (*Result, error) {
	if !e.Incomplete() {
		return New(s, opts).Complete(e)
	}
	psi, err := EnumerateConsistent(s, e, opts, limit)
	if err != nil {
		return nil, err
	}
	return naiveSelect(s, psi, opts), nil
}

// enumerate returns Ψ of an unannotated pattern: every acyclic path
// from the root that completes it, each edge sequence once (gap splits
// can spell one path twice). Its moves are dynTransitions', derived
// once per (class, segment) state; only opts.Exclude affects them.
func enumerate(s *schema.Schema, pat *pattern, opts Options, limit int) ([]*pathexpr.Resolved, error) {
	var (
		out     []*pathexpr.Resolved
		seen    = make(map[string]bool)
		visited = make([]bool, s.NumClasses())
		path    []schema.RelID
		errl    error
		moves   = make([]*[2][]trans, s.NumClasses()*len(pat.segs))
	)
	var dfs func(v schema.ClassID, seg int) bool
	dfs = func(v schema.ClassID, seg int) bool {
		st := &moves[int(v)*len(pat.segs)+seg]
		if *st == nil {
			comps, kids := dynTransitions(s, pat, &opts, v, seg)
			*st = &[2][]trans{comps, kids}
		}
		comps, kids := (*st)[0], (*st)[1]
		for _, tr := range comps {
			if visited[tr.rel.To] {
				continue
			}
			rels := make([]schema.RelID, 0, len(path)+1)
			rels = append(rels, path...)
			rels = append(rels, tr.rel.ID)
			sig := sigFor(rels)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			r, err := pathexpr.FromRels(s, pat.root, rels)
			if err != nil {
				panic("core: inconsistent enumeration stack: " + err.Error())
			}
			out = append(out, r)
			if limit > 0 && len(out) > limit {
				errl = ErrEnumLimit
				return false
			}
		}
		for _, tr := range kids {
			if visited[tr.rel.To] {
				continue
			}
			visited[tr.rel.To] = true
			path = append(path, tr.rel.ID)
			ok := dfs(tr.rel.To, seg+tr.step)
			path = path[:len(path)-1]
			visited[tr.rel.To] = false
			if !ok {
				return false
			}
		}
		return true
	}
	visited[pat.root] = true
	dfs(pat.root, 0)
	if errl != nil {
		return nil, errl
	}
	return out, nil
}

// sigFor renders an edge sequence as a string key for the enumerator's
// dedup map. The optimized engine dedups by hash (sigOf) instead; the
// enumerator is the cold definitional reference and keeps the obvious
// exact representation.
func sigFor(rels []schema.RelID) string {
	var sb strings.Builder
	for _, r := range rels {
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(int(r)))
	}
	return sb.String()
}

// filterAnnotated returns, in a new slice, the members of psi (the Ψ
// of pat's stripped pattern) that satisfy pat's regex constraints and
// predicates. It is independent of the kernel's automaton product: the
// stdlib regexp matcher over fragment spellings plus per-class
// predicate admissibility, over every gap segmentation of each path.
// An unannotated pattern keeps psi as it is.
func filterAnnotated(s *schema.Schema, pat *pattern, psi []*pathexpr.Resolved) ([]*pathexpr.Resolved, error) {
	if !pat.annotated() {
		return psi, nil
	}
	refs := make([]*gapre.Ref, len(pat.segs))
	for i := range pat.segs {
		if c := pat.segs[i].constraint; c != "" {
			var err error
			if refs[i], err = gapre.NewRef(c); err != nil {
				return nil, fmt.Errorf("core: gap constraint %q: %w", c, err)
			}
		}
	}
	var out []*pathexpr.Resolved
	for _, r := range psi {
		if matchAnnotated(s, pat, refs, r.Rels, 0, 0) {
			out = append(out, r)
		}
	}
	return out, nil
}

// matchAnnotated reports whether some segmentation of the edge
// sequence rels[i:] against pattern segments pat.segs[seg:] satisfies
// every gap-end condition, regex constraint, and predicate. It is the
// declarative counterpart of the kernel's in-search pruning: a path
// belongs to the constrained Ψ iff at least one of its gap splits
// passes.
func matchAnnotated(s *schema.Schema, pat *pattern, refs []*gapre.Ref, rels []schema.RelID, i, seg int) bool {
	if seg == len(pat.segs) {
		return i == len(rels)
	}
	if i == len(rels) {
		return false
	}
	sgmt := &pat.segs[seg]
	if sgmt.kind == segExplicit {
		rel := s.Rel(rels[i])
		if rel.Name != sgmt.name || rel.Conn != sgmt.conn {
			return false
		}
		if sgmt.predOK != nil && !sgmt.predOK[rel.To] {
			return false
		}
		return matchAnnotated(s, pat, refs, rels, i+1, seg+1)
	}
	for j := i; j < len(rels); j++ {
		rel := s.Rel(rels[j])
		var ends bool
		if sgmt.kind == segGapName {
			ends = rel.Name == sgmt.name || rel.To == sgmt.class
		} else {
			ends = rel.To == sgmt.class
		}
		if ends && (sgmt.predOK == nil || sgmt.predOK[rel.To]) {
			if (refs[seg] == nil || refs[seg].Match(pathexpr.SpellFragment(s, rels[i:j+1]))) &&
				matchAnnotated(s, pat, refs, rels, j+1, seg+1) {
				return true
			}
		}
		if s.Class(rel.To).Primitive {
			return false // the gap cannot continue through a primitive
		}
	}
	return false
}

// naiveSelect is the selection step, the definitional answer over psi:
// AGG* picks the optimal keys (Best), whose witnesses' edges are
// Support; then preemption, the specificity preference and the result
// order apply, the order by a comparator of its own, so the harness
// checks sortCompletions independently. psi is only read.
func naiveSelect(s *schema.Schema, psi []*pathexpr.Resolved, opts Options) *Result {
	keys := make([]label.Key, len(psi))
	labels := make([]label.Label, len(psi))
	for i, r := range psi {
		labels[i] = r.Label()
		keys[i] = labels[i].Key()
	}
	best := label.AggStar(keys, opts.e())
	support := NewEdgeSet(s.NumRels())
	var found []Completion
	for i, r := range psi {
		if slices.Contains(best, keys[i]) {
			found = append(found, Completion{Path: r, Label: labels[i]})
			for _, rid := range r.Rels {
				support.Add(rid)
			}
		}
	}
	if !opts.NoPreemption {
		found = preempt(found, nil)
	}
	if opts.PreferSpecific {
		found = preferSpecific(found)
	}
	sort.Slice(found, func(i, j int) bool {
		ki, kj := found[i].Label.Key(), found[j].Label.Key()
		if ki.SemLen != kj.SemLen {
			return ki.SemLen < kj.SemLen
		}
		if a, b := ki.Conn.String(), kj.Conn.String(); a != b {
			return a < b
		}
		return found[i].Path.String() < found[j].Path.String()
	})
	return &Result{
		Completions: found,
		Best:        best,
		Stats:       Stats{Enumerated: len(psi)},
		Support:     support,
	}
}
