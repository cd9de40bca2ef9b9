package core

// This file implements the all-pairs side of the path-algebra
// formulation. Carré's framework admits two classical computation
// shapes for an optimal-path problem: the single-source search
// (Algorithm 2, what Complete runs per query) and the all-pairs
// closure, which materializes the optimal answer for every source at
// once. For the disambiguation mechanism the "pairs" are
// (source class, gap anchor): the dominant query shape is the
// single-gap expression `root ~ anchor`, and for a fixed anchor the
// compiled transition index is root-independent, so one index and one
// pooled engine (with its dirty-list best[u] reset) serve the whole
// source sweep.
//
// The solver deliberately does NOT re-derive answers through a
// different algorithm: every (root, anchor) cell is produced by the
// exact same dispatch the serving path uses (search, the compiled
// kernel), so a materialized cell is bit-for-bit the
// Result an online query would have computed, caution sets and the
// Inheritance Semantics Criterion included. The differential suite in
// internal/closure locks that equality over the oracle corpus.

import (
	"context"
	"fmt"
	"sort"

	"pathcomplete/internal/schema"
)

// GapAnchors returns every name that is a valid single-gap anchor of
// the schema — the names `x` for which some `root ~ x` query compiles:
// the distinct relationship names plus the non-primitive class names
// (a gap anchored on a class name also ends at any edge into that
// class; see compile). Sorted, deduplicated. This is the column
// universe of the all-pairs closure. Some anchors compile but can
// never complete: the inverse of an attribute, named
// <class>_of_<attr>, leaves a primitive class, and gaps never pass
// through primitives. Their cells are answered by the reachability
// check without a search.
func GapAnchors(s *schema.Schema) []string {
	set := make(map[string]bool)
	for _, rel := range s.Rels() {
		set[rel.Name] = true
	}
	for _, c := range s.Classes() {
		if !c.Primitive {
			set[c.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// gapSegment compiles one ~anchor step against the schema: the
// derivation compile applies to every Step{Gap: true}, before its
// constraint and predicate are attached.
func gapSegment(s *schema.Schema, anchor string) (segment, error) {
	seg := segment{kind: segGapName, name: anchor, class: schema.NoClass}
	if cls, ok := s.ClassByName(anchor); ok {
		seg.class = cls.ID
	}
	if seg.class == schema.NoClass && len(s.RelIDsNamed(anchor)) == 0 {
		return segment{}, fmt.Errorf("core: no relationship or class named %q anywhere in schema %s",
			anchor, s.Name())
	}
	return seg, nil
}

// AllPairsGap computes the single-gap completion `root ~ anchor` from
// every non-primitive root class that want accepts (every one when
// want is nil), invoking fn once per such root in ascending class
// order. The sweep compiles the anchor's index once and shares it, since
// its rows do not depend on the root; each cell runs through the same
// search as an online query, so fn receives exactly the Result Complete
// would have returned for that (root, anchor).
//
// The sweep is cancellable: when ctx is done, AllPairsGap stops and
// returns the context's error without invoking fn for a partial cell.
// Roots from which the anchor is unreachable still produce a cell (an
// empty Result) — "no consistent completion" is itself the materialized
// answer. search's reachability check answers those cells without a
// traversal, so their cost is one walk of the anchor's index, not a
// search; they are most of a closure build's traverse calls otherwise.
func (c *Completer) AllPairsGap(ctx context.Context, anchor string, want func(root schema.ClassID) bool, fn func(root schema.ClassID, res *Result)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	seg, err := gapSegment(c.s, anchor)
	if err != nil {
		return err
	}
	segs := []segment{seg}
	cp := c.compiledFor(&pattern{segs: segs}) // the rows do not depend on the root
	for v := 0; v < c.s.NumClasses(); v++ {
		cls := c.s.Class(schema.ClassID(v))
		if cls.Primitive || (want != nil && !want(cls.ID)) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		res := c.search(ctx, &pattern{root: cls.ID, segs: segs}, cp)
		if res.Aborted {
			// The context tripped mid-search (AllPairsGap itself sets no
			// other bound): the cell is partial, so it must not be
			// materialized. Surface the cancellation.
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: all-pairs sweep aborted at %s~%s: %s", cls.Name, anchor, res.StopReason)
		}
		fn(cls.ID, res)
	}
	return nil
}
