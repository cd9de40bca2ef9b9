package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pathcomplete/internal/gapre"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

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

// This file implements the definitional reference: enumerate the set Ψ
// of ALL valid acyclic complete path expressions consistent with an
// incomplete expression (Section 3), then select Ψ_opt with AGG* and
// the Inheritance Semantics Criterion. It serves three purposes: the
// oracle that the pruned Algorithm 2 search is property-tested
// against, the baseline of the benchmark suite, and the source of the
// paper's in-text statistic that an average of over 500 acyclic path
// expressions are consistent with each incomplete expression.

// ErrEnumLimit is returned when enumeration exceeds the caller's
// limit.
var ErrEnumLimit = fmt.Errorf("core: consistent-path enumeration limit exceeded")

// EnumerateConsistent returns every acyclic complete path expression
// consistent with e, in no particular order. Excluded classes (if any
// are configured in opts) are respected so that the enumeration stays
// comparable with the pruned search. limit > 0 aborts with
// ErrEnumLimit once more than limit paths are found.
func EnumerateConsistent(s *schema.Schema, e pathexpr.Expr, opts Options, limit int) ([]*pathexpr.Resolved, error) {
	pat, err := compile(s, e)
	if err != nil {
		return nil, err
	}
	return enumerateAnnotated(s, pat, opts, limit)
}

// enumerateAnnotated is the definitional reference for annotated
// (regex-constrained or predicate-carrying) patterns: enumerate the
// UNCONSTRAINED Ψ on the stripped pattern, then post-filter by an
// independent engine — the stdlib regexp matcher over fragment
// spellings plus per-class predicate admissibility — over every
// possible gap segmentation of each path. The optimized kernel, which
// prunes via the determinized automaton product inside the search, is
// property-tested against this. Unannotated patterns pass straight
// through to the plain enumerator. limit bounds the pre-filter
// enumeration.
func enumerateAnnotated(s *schema.Schema, pat *pattern, opts Options, limit int) ([]*pathexpr.Resolved, error) {
	if !pat.annotated() {
		return enumerate(s, pat, opts, limit)
	}
	all, err := enumerate(s, pat.stripped(), opts, limit)
	if err != nil {
		return nil, err
	}
	refs := make([]*gapre.Ref, len(pat.segs))
	for i := range pat.segs {
		if c := pat.segs[i].constraint; c != "" {
			if refs[i], err = gapre.NewRef(c); err != nil {
				return nil, fmt.Errorf("core: gap constraint %q: %w", c, err)
			}
		}
	}
	out := all[:0]
	for _, r := range all {
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

func enumerate(s *schema.Schema, pat *pattern, opts Options, limit int) ([]*pathexpr.Resolved, error) {
	en := newEngine(context.Background(), s, pat, opts)
	var (
		out  []*pathexpr.Resolved
		seen = make(map[string]bool)
		errl error
	)
	var dfs func(v schema.ClassID, seg int) bool
	dfs = func(v schema.ClassID, seg int) bool {
		comps, kids := en.transitions(v, seg)
		for _, tr := range comps {
			if en.visited[tr.rel.To] {
				continue
			}
			rels := make([]schema.RelID, 0, len(en.path)+1)
			rels = append(rels, en.path...)
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
			if en.visited[tr.rel.To] {
				continue
			}
			en.visited[tr.rel.To] = true
			en.path = append(en.path, tr.rel.ID)
			ok := dfs(tr.rel.To, seg+tr.step)
			en.path = en.path[:len(en.path)-1]
			en.visited[tr.rel.To] = false
			if !ok {
				return false
			}
		}
		return true
	}
	en.visited[pat.root] = true
	dfs(pat.root, 0)
	if errl != nil {
		return nil, errl
	}
	return out, nil
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
	pat, err := compile(s, e)
	if err != nil {
		return nil, err
	}
	all, err := enumerateAnnotated(s, pat, opts, limit)
	if err != nil {
		return nil, err
	}
	keys := make([]label.Key, len(all))
	labels := make([]label.Label, len(all))
	for i, r := range all {
		labels[i] = r.Label()
		keys[i] = labels[i].Key()
	}
	best := label.AggStar(keys, opts.e())
	support := NewEdgeSet(s.NumRels())
	var found []Completion
	for i, r := range all {
		if containsKey(best, keys[i]) {
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
		Stats:       Stats{Enumerated: len(all)},
		Support:     support,
	}, nil
}
