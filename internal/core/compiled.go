package core

// This file implements the compiled search kernel's schema index: the
// admissible moves of every product-space state (class × pattern
// segment) as slice views, so the per-visit work of dynTransitions —
// out-edge filtering, gap/exclusion logic, and a sort — becomes a
// lookup with no allocation. This is the product-automaton
// precompilation of regular-path-query engines applied to Algorithm 2.
//
// The index has two layers. The base table, built once per Completer
// on first use, holds every class's admissible out-edges as moves that
// stay in the current segment: exactly what dynTransitions derives at
// a gap state none of whose out-edges can end the gap, whatever the
// pattern, the anchor or the segment position. Compiling a pattern
// derives, through dynTransitions itself, override rows for only the
// states that differ: a class with an edge that can end a segment.
// Compiling therefore costs O(edges that end a segment), not
// O(classes × segments × out-degree), so nothing is memoized per
// pattern.

import (
	"context"
	"sync/atomic"

	"pathcomplete/internal/schema"
)

// poolServed counts engines handed out from a Completer's sync.Pool
// (as opposed to freshly allocated) across the process — the signal
// that the zero-allocation hot path is actually recycling. Exposed as
// a /metrics gauge refreshed on scrape.
var poolServed atomic.Uint64

// EnginePoolServed returns the process-wide count of pool-recycled
// engine checkouts.
func EnginePoolServed() uint64 { return poolServed.Load() }

// baseTable is the pattern-independent layer of the index: row v,
// moves[off[v]:off[v+1]], lists class v's out-edges in schema.Out order
// as stay moves (step 0), without the edges into classes
// Options.Exclude names. Primitive classes have empty rows: gaps never
// pass through them.
type baseTable struct {
	off   []int32
	moves []trans
}

func newBaseTable(s *schema.Schema, opts *Options) *baseTable {
	b := &baseTable{off: make([]int32, s.NumClasses()+1), moves: make([]trans, 0, s.NumRels())}
	for v := 0; v < s.NumClasses(); v++ {
		if !s.Class(schema.ClassID(v)).Primitive {
			for _, rid := range s.Out(schema.ClassID(v)) {
				if rel := s.Rel(rid); !opts.Exclude[rel.To] {
					b.moves = append(b.moves, trans{rel: rel})
				}
			}
		}
		b.off[v+1] = int32(len(b.moves))
	}
	return b
}

// baseTable returns the Completer's base table, building it on first
// use so that New stays O(1).
func (c *Completer) baseTable() *baseTable {
	c.baseOnce.Do(func() { c.base = newBaseTable(c.s, &c.opts) })
	return c.base
}

// compiled is the transition index of one pattern. row maps state
// int(class)*numSegs+seg to 0 when the state takes its base row, and
// to r+1 when it takes override row r: the completing moves
// comps[compOff[r]:compOff[r+1]] and the ordinary children
// kids[kidOff[r]:kidOff[r+1]], exactly as dynTransitions produces them
// (completions in schema.Out order, children best-edge-first), so the
// compiled and dynamic engines traverse identically. Override row 0 is
// empty: it serves every class of an explicit segment that has no edge
// of the step's name.
type compiled struct {
	base    *baseTable
	numSegs int
	row     []int32
	compOff []int32
	kidOff  []int32
	comps   []trans
	kids    []trans
}

// moves returns slice views into the index; callers must not modify
// them.
func (cp *compiled) moves(v schema.ClassID, seg int) (comps, kids []trans) {
	r := cp.row[int(v)*cp.numSegs+seg]
	if r == 0 {
		return nil, cp.base.moves[cp.base.off[v]:cp.base.off[v+1]]
	}
	return cp.comps[cp.compOff[r-1]:cp.compOff[r]], cp.kids[cp.kidOff[r-1]:cp.kidOff[r]]
}

// compiledFor builds pat's index over the Completer's base table. A state
// needs an override row when its class has an edge able to end the
// segment:
//   - an edge of the segment's name (an explicit step, or a gap
//     anchored on a relationship name);
//   - an edge into the segment's class (a gap anchored on a class
//     name, or the class-anchored form of CompleteToClass). Every edge
//     has an inverse, so these classes are the targets of the class's
//     own out-edges.
//
// A first pass marks those states and bounds their moves: at most one
// stay move per out-edge of a gap state, and one advancing move per
// edge able to end a segment. The second pass then fills the rows
// without growing a slice. The index is immutable once built and may
// be shared by concurrent searches.
func (c *Completer) compiledFor(pat *pattern) *compiled {
	s := c.s
	numSegs := len(pat.segs)
	cp := &compiled{base: c.baseTable(), numSegs: numSegs, row: make([]int32, s.NumClasses()*numSegs)}
	const marked = -1
	rows, numComps, numKids := 0, 0, 0
	mark := func(v schema.ClassID, seg int) {
		i := int(v)*numSegs + seg
		if cp.row[i] == marked {
			return
		}
		cp.row[i] = marked
		rows++
		if pat.segs[seg].kind != segExplicit {
			numKids += len(s.Out(v))
		}
	}
	for seg := range pat.segs {
		sg := &pat.segs[seg]
		ends := 0
		if sg.kind == segExplicit {
			for v := 0; v < s.NumClasses(); v++ {
				cp.row[v*numSegs+seg] = 1 // the empty row, unless marked below
			}
		}
		if sg.kind != segGapClass {
			named := s.RelIDsNamed(sg.name)
			ends += len(named)
			for _, rid := range named {
				mark(s.Rel(rid).From, seg)
			}
		}
		if sg.kind != segExplicit && sg.class != schema.NoClass {
			out := s.Out(sg.class)
			ends += len(out)
			for _, rid := range out {
				mark(s.Rel(rid).To, seg)
			}
		}
		if seg == numSegs-1 {
			numComps += ends
		} else {
			numKids += ends
		}
	}
	off := make([]int32, 2*(rows+2))
	cp.compOff, cp.kidOff = off[:rows+2], off[rows+2:]
	cp.comps = make([]trans, 0, numComps)
	cp.kids = make([]trans, 0, numKids)
	r := int32(1)
	for i, x := range cp.row {
		if x != marked {
			continue
		}
		cp.comps, cp.kids = appendTransitions(cp.comps, cp.kids, s, pat, &c.opts, schema.ClassID(i/numSegs), i%numSegs)
		r++
		cp.row[i] = r
		cp.compOff[r], cp.kidOff[r] = int32(len(cp.comps)), int32(len(cp.kids))
	}
	return cp
}

// getEngineFor takes a recycled engine from the pool (or builds one)
// and prepares it for a search of pat over cp under the completer's
// options.
func (c *Completer) getEngineFor(ctx context.Context, pat *pattern, cp *compiled) *engine {
	en, _ := c.pool.Get().(*engine)
	if en == nil {
		en = &engine{s: c.s, visited: make([]bool, c.s.NumClasses())}
	} else {
		poolServed.Add(1)
	}
	en.prepare(ctx, pat, cp, c.opts)
	return en
}

// putEngine resets the engine's per-search state and returns it to the
// pool. The caller must be done with every view into the engine (the
// assembled Result copies everything it exposes).
func (c *Completer) putEngine(en *engine) {
	en.release()
	c.pool.Put(en)
}
