package core

import (
	"context"
	"slices"
	"strings"
	"time"

	"pathcomplete/internal/connector"
	"pathcomplete/internal/gapre"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// A node of the product search space is a schema class together with
// the index of the next pattern segment to satisfy; reaching segment
// index len(pattern.segs) completes a path. States are identified by
// the dense row index int(cls)*numSegs+seg throughout (the best table
// and the compiled transition index share the layout).

// trans is one admissible move: traverse rel, then stay in the current
// pattern segment (step 0: the ~ gap continues) or advance to the next
// one (step 1). The step is relative, so one move serves a class at
// every segment position (see baseTable).
type trans struct {
	rel  schema.Rel
	step int
}

// foundEntry is one admitted complete path, kept in raw form during
// the search; Completions are materialized once, at assembly. sig is
// the FNV-1a hash of rels used to make duplicate detection a word
// compare first and a slice compare only on hash match.
type foundEntry struct {
	rels []schema.RelID
	key  label.Key
	sig  uint64
}

// engine runs one Algorithm 2 search. An engine is used by one search
// at a time; Completer recycles engines through a sync.Pool, so every
// piece of scratch state must be reset by prepare (before a search)
// or release (after one) — see those methods.
type engine struct {
	s      *schema.Schema
	pat    *pattern
	cp     *compiled // nil: derive transitions per visit (naive, noCompile)
	opts   Options
	e      int
	tracer Tracer // nil: tracing disabled (the hot-path default)

	// Stop bounds. done is the context's done channel (nil for a
	// Background context); checkStop is false on the fast path where
	// neither a context deadline/cancel source nor Options.Deadline is
	// in play, making the per-call cost one untaken branch.
	done        <-chan struct{}
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	checkStop   bool
	stop        StopReason

	visited []bool // per class: on the current path

	// bestOff and bestArena are the dense best[u] table of Algorithm 2.
	// bestOff is indexed by state, int(cls)*numSegs+seg: 0 while the
	// state holds no label, otherwise the 1-based number of its slot,
	// the E words bestArena[(n-1)*E : n*E] of a label.Packed set. A slot
	// is appended on its state's first insert, so a search costs O(states)
	// offsets plus E words per touched state. Both keep their capacity
	// across pooled searches; dirty lists the touched states so reset is
	// O(touched), not O(classes × segments).
	//
	// For regex-constrained patterns the state space is the product
	// with the constraint automata, so the table widens: the index
	// becomes int(cls)*totalCols + cols[seg] + automaton state (cols
	// and totalCols mirror pattern.cols/totalCols; cols stays nil — and
	// the layout identical to the unconstrained one — otherwise).
	bestOff   []int32
	bestArena []uint64
	dirty     []int32
	numSegs   int
	cols      []int32
	totalCols int

	bestT label.Packed // best[T], E words
	path  []schema.RelID

	// seen and queue are the scratch of canComplete: a bitset over the
	// (class, segment) states, indexed like the unconstrained best
	// table, and its breadth-first queue. Both keep their capacity
	// across pooled searches.
	seen  []uint64
	queue []int32

	found     []foundEntry
	truncated bool
	stats     Stats
}

// newEngine builds a fresh, unpooled engine — the construction path of
// the naive enumerator.
func newEngine(ctx context.Context, s *schema.Schema, pat *pattern, opts Options) *engine {
	en := &engine{s: s, visited: make([]bool, s.NumClasses())}
	en.prepare(ctx, pat, nil, opts)
	return en
}

// prepare readies the engine for one search over pat (with compiled
// transition index cp, or nil for the dynamic path). It must reset
// every piece of per-search state that release does not.
func (en *engine) prepare(ctx context.Context, pat *pattern, cp *compiled, opts Options) {
	en.pat = pat
	en.cp = cp
	en.opts = opts
	en.e = opts.e()
	en.tracer = opts.Tracer
	en.ctx = ctx
	en.done = ctx.Done()
	en.deadline, en.hasDeadline = time.Time{}, false
	if dl, ok := ctx.Deadline(); ok {
		en.deadline, en.hasDeadline = dl, true
	}
	if opts.Deadline > 0 {
		if dl := time.Now().Add(opts.Deadline); !en.hasDeadline || dl.Before(en.deadline) {
			en.deadline, en.hasDeadline = dl, true
		}
	}
	en.checkStop = en.done != nil || en.hasDeadline
	en.stop = StopNone
	en.numSegs = len(pat.segs)
	en.cols = pat.cols
	en.totalCols = pat.totalCols
	need := len(en.visited) * en.numSegs
	if en.cols != nil {
		need = len(en.visited) * en.totalCols
	}
	if cap(en.bestOff) < need {
		en.bestOff = make([]int32, need)
	} else {
		en.bestOff = en.bestOff[:need]
	}
	if cap(en.bestT) < en.e {
		en.bestT = label.NewPacked(en.e)
	} else {
		en.bestT = en.bestT[:en.e]
		en.bestT.Reset()
	}
	en.path = en.path[:0]
	en.found = en.found[:0]
	en.truncated = false
	en.stats = Stats{}
}

// release clears the state a pooled engine must not carry into its
// next search: the offsets of touched best slots and the arena behind
// them (length only — capacity is the point of pooling), references to
// per-query allocations, and the context.
func (en *engine) release() {
	for _, idx := range en.dirty {
		en.bestOff[idx] = 0
	}
	en.dirty = en.dirty[:0]
	en.bestArena = en.bestArena[:0]
	for i := range en.found {
		en.found[i] = foundEntry{} // drop rels references
	}
	en.found = en.found[:0]
	en.tracer = nil
	en.ctx = nil
	en.done = nil
}

// bestSlot returns the best[u] set of state idx, or nil while the state
// holds no label. The view aliases the arena, so it is valid only until
// the next newSlot.
func (en *engine) bestSlot(idx int) label.Packed {
	n := int(en.bestOff[idx])
	if n == 0 {
		return nil
	}
	base := (n - 1) * en.e
	return label.Packed(en.bestArena[base : base+en.e : base+en.e])
}

// newSlot appends an empty best[u] set for state idx, which must hold
// none, and lists the state as dirty.
func (en *engine) newSlot(idx int) label.Packed {
	base := len(en.bestArena)
	en.bestArena = slices.Grow(en.bestArena, en.e)[:base+en.e]
	slot := label.Packed(en.bestArena[base : base+en.e : base+en.e])
	slot.Reset()
	en.bestOff[idx] = int32(base/en.e + 1)
	en.dirty = append(en.dirty, int32(idx))
	return slot
}

// canComplete is the reachability check in front of Algorithm 2. It
// walks the product of the schema graph and the pattern's segments
// from (root, 0) through the engine's own moves, never re-entering the
// root, and reports whether a completing move into a class other than
// the root is reachable. Every path traverse can offer is such a walk,
// so when canComplete is false no path is offered, and the Result
// assemble builds from the empty found set is the answer. The walk
// ignores labels, constraint automata and acyclicity beyond the root;
// it only over-approximates what traverse can reach. It is
// breadth-first, so on an answerable query it stops at the nearest
// state with a completing move: on the oracle queries of
// BenchmarkSchemaScaling that is 3–10× fewer state visits than a
// depth-first walk (on random cells the two cost about the same).
func (en *engine) canComplete() bool {
	root, numSegs := en.pat.root, int32(en.numSegs)
	states := len(en.visited) * en.numSegs
	if words := (states + 63) / 64; cap(en.seen) < words {
		en.seen = make([]uint64, words)
	} else {
		en.seen = en.seen[:words]
		clear(en.seen)
	}
	if cap(en.queue) < states {
		en.queue = make([]int32, 0, states) // a state is queued at most once
	}
	start := int32(root) * numSegs
	en.seen[start/64] |= 1 << (start % 64)
	queue := append(en.queue[:0], start)
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		st := queue[head]
		seg := st % numSegs
		comps, kids := en.moves(schema.ClassID(st/numSegs), int(seg))
		for i := range comps {
			if comps[i].rel.To != root {
				found = true
				break
			}
		}
		for i := range kids {
			if kids[i].rel.To == root {
				continue
			}
			next := int32(kids[i].rel.To)*numSegs + seg + int32(kids[i].step)
			if bit := uint64(1) << (next % 64); en.seen[next/64]&bit == 0 {
				en.seen[next/64] |= bit
				queue = append(queue, next)
			}
		}
	}
	en.queue = queue
	return found
}

func (en *engine) run() *Result {
	en.visited[en.pat.root] = true
	en.traverse(en.pat.root, 0, 0, label.IncIdentity(), label.Identity())
	en.visited[en.pat.root] = false
	return en.assemble()
}

// stopNow consults the stop sources the amortized check guards: the
// context's done channel first (distinguishing cancellation from a
// context deadline), then the effective wall-clock deadline. It
// records the reason and reports whether the search must stop.
func (en *engine) stopNow() bool {
	select {
	case <-en.done:
		if en.ctx.Err() == context.DeadlineExceeded {
			en.stop = StopDeadline
		} else {
			en.stop = StopCanceled
		}
		return true
	default:
	}
	if en.hasDeadline && !time.Now().Before(en.deadline) {
		en.stop = StopDeadline
		return true
	}
	return false
}

// traverse is the recursive routine of Algorithm 2. v is the current
// class, seg the next pattern segment, lv the incremental label of the
// path from the root to v (whose edges are on en.path). q is the state
// of segment seg's constraint automaton over the fragment consumed so
// far (always 0 when the segment is unconstrained — a new segment
// starts its automaton fresh). tlv is the full sequence-carrying label,
// maintained only while tracing (the tracer interface reports exact
// labels); with a nil tracer it stays the identity and costs nothing.
func (en *engine) traverse(v schema.ClassID, seg int, q int32, lv label.Inc, tlv label.Label) {
	if en.stop != StopNone {
		return // a bound already tripped: unwind without exploring
	}
	if en.opts.MaxCalls > 0 && en.stats.Calls >= en.opts.MaxCalls {
		en.stop = StopMaxCalls
		return
	}
	// Amortized cancellation/deadline check: every stopCheckInterval
	// calls, so the fast path costs one untaken branch per call.
	if en.checkStop && en.stats.Calls&stopCheckMask == 0 && en.stopNow() {
		return
	}
	en.stats.Calls++
	if en.tracer != nil {
		en.tracer.OnEnter(v, seg, len(en.path), tlv)
	}
	comps, kids := en.moves(v, seg)

	// Lines (2)–(5): explore moves that complete the expression before
	// ordinary children, so best[T] can prune as early as possible.
	if !en.opts.NoEarlyTarget {
		en.offerAll(seg, q, comps, lv, tlv)
	}
	for i := range kids {
		if en.stop != StopNone {
			break // unwind: no further exploration, keep what we have
		}
		tr := &kids[i]
		u, toSeg := tr.rel.To, seg+tr.step
		if en.visited[u] {
			if en.tracer != nil {
				en.tracer.OnPrune(PruneCycle, tr.rel, toSeg, tlv)
			}
			continue // line (8): acyclicity
		}
		// Constraint-automaton product: a move within a constrained gap
		// must keep the automaton alive; a move that ends the gap must
		// land it in an accepting state. The next segment (constrained
		// or not) starts its own automaton at state 0.
		nq := int32(0)
		if d := en.pat.segs[seg].dfa; d != nil {
			step := d.Step(q, int(tr.rel.ID))
			if tr.step == 0 {
				if step == gapre.Dead {
					if en.tracer != nil {
						en.tracer.OnPrune(PruneConstraint, tr.rel, toSeg, tlv)
					}
					continue
				}
				nq = step
			} else if !d.Accepting(step) {
				if en.tracer != nil {
					en.tracer.OnPrune(PruneConstraint, tr.rel, toSeg, tlv)
				}
				continue
			}
		}
		lu := lv.Extend(tr.rel.Conn)
		key := lu.Key()
		var tlu label.Label
		if en.tracer != nil {
			tlu = label.Con(tlv, label.MustEdge(tr.rel.Conn))
		}
		// Line (9): bound against the best complete labels found.
		if !en.opts.DisableBestT && !en.bestT.Fits(key) {
			en.stats.PrunedBestT++
			if en.tracer != nil {
				en.tracer.OnPrune(PruneBestT, tr.rel, toSeg, tlu)
			}
			continue
		}
		if !en.opts.DisableBestU {
			// Lines (10)–(11): membership in AGG*({l_u} ∪ best[u]),
			// optionally with one unit of semantic-length slack, with
			// the caution-set escape hatch.
			idx := int(u)*en.numSegs + toSeg
			if en.cols != nil {
				idx = int(u)*en.totalCols + int(en.cols[toSeg])
				if tr.step == 0 {
					idx += int(nq)
				}
			}
			slot := en.bestSlot(idx)
			if slot == nil {
				slot = en.newSlot(idx) // an empty best[u]: every label fits
			} else {
				testKey := key
				if en.opts.SemLenSlack && testKey.SemLen > 0 {
					testKey.SemLen--
				}
				// A label that fails the test is still explored when
				// some label of best[u] is in its connector's caution
				// set: one AND with the union of the slot's connectors.
				if !slot.Fits(testKey) {
					if en.opts.Caution == CautionOff || !en.cautionSet(key.Conn).Intersects(slot.Conns()) {
						en.stats.PrunedBestU++
						if en.tracer != nil {
							en.tracer.OnPrune(PruneBestU, tr.rel, toSeg, tlu)
						}
						continue
					}
					en.stats.CautionSaves++
					if en.tracer != nil {
						en.tracer.OnPrune(CautionSave, tr.rel, toSeg, tlu)
					}
				}
			}
			// Line (12).
			slot.Insert(key)
		}
		en.visited[u] = true
		en.path = append(en.path, tr.rel.ID)
		en.traverse(u, toSeg, nq, lu, tlu)
		en.path = en.path[:len(en.path)-1]
		en.visited[u] = false
	}
	if en.opts.NoEarlyTarget {
		en.offerAll(seg, q, comps, lv, tlv)
	}
}

// moves returns the admissible transitions at (v, seg): slice views
// into the compiled index when one is attached, the dynamically
// derived (and allocated) lists otherwise.
func (en *engine) moves(v schema.ClassID, seg int) (comps, kids []trans) {
	if en.cp != nil {
		return en.cp.moves(v, seg)
	}
	return en.transitions(v, seg)
}

func (en *engine) cautionSet(c connector.Connector) connector.Set {
	if en.opts.Caution == CautionExtendedMode {
		return connector.CautionExtended(c)
	}
	return connector.Caution(c)
}

// offerAll offers every completing move at (v, seg). q is the state of
// segment seg's constraint automaton: a completing edge must land the
// automaton in an accepting state, or the fragment it spells violates
// the constraint.
func (en *engine) offerAll(seg int, q int32, comps []trans, lv label.Inc, tlv label.Label) {
	d := en.pat.segs[seg].dfa
	for i := range comps {
		tr := &comps[i]
		if en.visited[tr.rel.To] {
			if en.tracer != nil {
				en.tracer.OnPrune(PruneCycle, tr.rel, len(en.pat.segs), tlv)
			}
			continue // the completed expression would be cyclic
		}
		if d != nil && !d.Accepting(d.Step(q, int(tr.rel.ID))) {
			if en.tracer != nil {
				en.tracer.OnPrune(PruneConstraint, tr.rel, len(en.pat.segs), tlv)
			}
			continue
		}
		en.offer(tr.rel, lv.Extend(tr.rel.Conn), tlv)
	}
}

// offer considers one complete consistent path: the current edge stack
// plus final edge rel, with whole-path label lu, and reports the
// outcome to the tracer.
func (en *engine) offer(rel schema.Rel, lu label.Inc, tlv label.Label) {
	en.stats.Offers++
	accepted := en.admit(rel, lu.Key())
	if en.tracer != nil {
		rels := make([]schema.RelID, 0, len(en.path)+1)
		rels = append(rels, en.path...)
		rels = append(rels, rel.ID)
		en.tracer.OnOffer(rels, label.Con(tlv, label.MustEdge(rel.Conn)), accepted)
	}
}

// admit maintains best[T] (lines 3–4) and the optimal path set (the
// update procedure of Section 4.5) for one offered path, reporting
// whether the path joined the candidate set.
func (en *engine) admit(rel schema.Rel, key label.Key) bool {
	if !en.bestT.Fits(key) {
		return false
	}
	if en.bestT.Insert(key) {
		en.dropStale()
	}

	sig := sigOf(en.path, rel.ID)
	for i := range en.found {
		if en.found[i].sig == sig && relsEqualSplit(en.found[i].rels, en.path, rel.ID) {
			return false // same edge sequence reached through a different gap split
		}
	}
	if en.opts.MaxPaths > 0 && len(en.found) >= en.opts.MaxPaths {
		en.truncated = true
		return false
	}
	rels := make([]schema.RelID, 0, len(en.path)+1)
	rels = append(rels, en.path...)
	rels = append(rels, rel.ID)
	en.found = append(en.found, foundEntry{rels: rels, key: key, sig: sig})
	return true
}

// dropStale removes previously found paths whose labels fell out of
// best[T]. Every found label is in best[T] until best[T] changes, so
// it runs only after a change.
func (en *engine) dropStale() {
	keep := en.found[:0]
	for _, f := range en.found {
		if en.bestT.Has(f.key) {
			keep = append(keep, f)
		}
	}
	for i := len(keep); i < len(en.found); i++ {
		en.found[i] = foundEntry{}
	}
	en.found = keep
}

// sigOf hashes the edge sequence path+last with FNV-1a. Duplicate
// detection compares sig first and the sequences themselves on match,
// so a hash collision costs a memcmp, never a wrong answer.
func sigOf(path []schema.RelID, last schema.RelID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, r := range path {
		h = (h ^ uint64(uint32(r))) * prime64
	}
	return (h ^ uint64(uint32(last))) * prime64
}

func relsEqual(a, b []schema.RelID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// relsEqualSplit reports whether a equals path followed by last.
func relsEqualSplit(a, path []schema.RelID, last schema.RelID) bool {
	if len(a) != len(path)+1 || a[len(a)-1] != last {
		return false
	}
	for i := range path {
		if a[i] != path[i] {
			return false
		}
	}
	return true
}

// transitions derives the admissible moves at (v, seg) from the schema
// — the dynamic path, used by the naive enumerator, by the noCompile
// reference configuration, and as the single source of truth the
// compiled index is built from. See dynTransitions.
func (en *engine) transitions(v schema.ClassID, seg int) (comps, kids []trans) {
	return dynTransitions(en.s, en.pat, &en.opts, v, seg)
}

// dynTransitions computes the admissible moves at (v, seg), split into
// completing moves (reaching segment index len(segs)) and ordinary
// children. Children are returned best-edge-first (the sorted
// children[] of Algorithm 2).
func dynTransitions(s *schema.Schema, pat *pattern, opts *Options, v schema.ClassID, seg int) (comps, kids []trans) {
	return appendTransitions(nil, nil, s, pat, opts, v, seg)
}

// appendTransitions is dynTransitions appending to comps and kids.
func appendTransitions(comps, kids []trans, s *schema.Schema, pat *pattern, opts *Options, v schema.ClassID, seg int) ([]trans, []trans) {
	sgmt := &pat.segs[seg]
	first := len(kids)
	add := func(t trans) {
		if seg+t.step == len(pat.segs) {
			comps = append(comps, t)
		} else {
			kids = append(kids, t)
		}
	}
	switch sgmt.kind {
	case segExplicit:
		if rel, ok := s.OutRel(v, sgmt.name); ok && rel.Conn == sgmt.conn {
			// Pushed-down predicate: an end class that cannot carry the
			// attribute is predicate-false by construction, so the move
			// is inadmissible.
			if sgmt.predOK == nil || sgmt.predOK[rel.To] {
				add(trans{rel: rel, step: 1})
			}
		}
	case segGapName, segGapClass:
		if s.Class(v).Primitive {
			return comps, kids // gaps never pass through primitive classes
		}
		for _, rid := range s.Out(v) {
			rel := s.Rel(rid)
			ends := false
			if sgmt.kind == segGapName {
				ends = rel.Name == sgmt.name || rel.To == sgmt.class
			} else {
				ends = rel.To == sgmt.class
			}
			// Pushed-down predicate: the gap may still pass through the
			// class, but cannot end there.
			if ends && sgmt.predOK != nil && !sgmt.predOK[rel.To] {
				ends = false
			}
			// Domain knowledge (Section 5.2): excluded classes may not
			// appear on a gap's path — neither as intermediate classes
			// nor as a name-anchored endpoint. An explicitly requested
			// target class is the user's own choice and stays allowed.
			if opts.Exclude[rel.To] && !(ends && sgmt.kind == segGapClass) {
				continue
			}
			if ends {
				add(trans{rel: rel, step: 1})
			}
			add(trans{rel: rel})
		}
	}
	// Children in best-to-worst edge order with progress as a
	// tiebreaker; schema.Out is already rank-sorted, but completions
	// were filtered out above, and explicit segments yield one child.
	slices.SortStableFunc(kids[first:], func(a, b trans) int {
		if ra, rb := a.rel.Conn.Rank(), b.rel.Conn.Rank(); ra != rb {
			return ra - rb
		}
		return b.step - a.step
	})
	return comps, kids
}

// assemble materializes, sorts, deduplicates, and preemption-filters
// the found paths into the final Result. Materialization happens here
// — once, for survivors only — rather than per admitted offer: the
// exact Label of each path is recomputed from its resolved edge
// sequence, which equals the traversal-time label because Con is
// associative.
func (en *engine) assemble() *Result {
	// The support set is taken from en.found — every witness of the
	// final best set, before the preemption/specificity filters below
	// drop any of them from Completions (see Result.Support).
	support := NewEdgeSet(en.s.NumRels())
	for _, f := range en.found {
		for _, r := range f.rels {
			support.Add(r)
		}
	}
	found := make([]Completion, 0, len(en.found))
	for _, f := range en.found {
		resolved, err := pathexpr.FromRels(en.s, en.pat.root, f.rels)
		if err != nil {
			// Unreachable: the edge stack is chained by construction.
			panic("core: inconsistent edge stack: " + err.Error())
		}
		found = append(found, Completion{Path: resolved, Label: resolved.Label()})
	}
	if !en.opts.NoPreemption {
		var onDrop func(dropped, by Completion)
		if en.tracer != nil {
			onDrop = func(dropped, by Completion) {
				en.tracer.OnPreempt(dropped.Path, by.Path)
			}
		}
		found = preempt(found, onDrop)
	}
	if en.opts.PreferSpecific {
		found = preferSpecific(found)
	}
	sortCompletions(found)
	return &Result{
		Completions: found,
		Best:        en.bestT.AppendKeys(make([]label.Key, 0, en.bestT.Len())),
		Stats:       en.stats,
		Truncated:   en.truncated,
		Aborted:     en.stop != StopNone,
		StopReason:  en.stop,
		Support:     support,
	}
}

// sortCompletions puts completions in result order: shortest semantic
// length first, then by connector symbol, then by the rendered path.
// Each path is rendered once per sort rather than on both sides of
// every comparison. NaiveComplete keeps its own comparator, so the
// oracle checks this order independently.
func sortCompletions(cs []Completion) {
	if len(cs) < 2 {
		return
	}
	type ranked struct {
		key  label.Key
		path string
		c    Completion
	}
	rs := make([]ranked, len(cs))
	for i, c := range cs {
		rs[i] = ranked{key: c.Label.Key(), path: c.Path.String(), c: c}
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if a.key.SemLen != b.key.SemLen {
			return a.key.SemLen - b.key.SemLen
		}
		if c := strings.Compare(a.key.Conn.String(), b.key.Conn.String()); c != 0 {
			return c
		}
		return strings.Compare(a.path, b.path)
	})
	for i := range rs {
		cs[i] = rs[i].c
	}
}
