package core

// This file implements the parallel root-branch search: the root
// class's outgoing branches are fanned across a bounded worker pool,
// each branch searched by its own pooled engine, and the per-branch
// results merged deterministically in branch order.
//
// Determinism and equivalence rest on three properties, verified by
// the cross-engine equivalence tests (kernel_equiv_test.go) and the
// label property tests (label/fast_test.go):
//
//  1. AGG* folding is order-independent: the better-than order is
//     graded (connector.Better compares strength ranks), so folding
//     keys into a best set one at a time yields the same set as one
//     batch AGG* regardless of arrival order. The merged best[T] is
//     therefore the same set the sequential search ends with.
//  2. The best[T] bound is sound under any subset of realized keys:
//     labels are monotone under CON (rank and semantic length never
//     improve when a path is extended), so a prefix that fails the
//     bound cannot extend into an optimal completion. Pruning against
//     a weaker (earlier, or branch-local) bound explores more but
//     never excludes an optimal path; in exact mode (DisableBestU) the
//     final answer set is exactly the optimal set however the bound
//     evolved, which is why workers may exchange bounds mid-flight and
//     the result is still identical to the sequential search's.
//  3. Per-node best[u] pruning is timing-dependent (it is a heuristic
//     over traversal order), so in the heuristic modes each branch
//     keeps its bounds branch-local: every branch is deterministic in
//     isolation, and the ordered merge makes the whole deterministic.
//     Cross-branch best[u] sharing — what the sequential sweep does —
//     is deliberately not replicated: its effect depends on which
//     branch ran first, which a parallel execution cannot reproduce.
//
// The final merge re-admits branch results in branch order, then
// re-runs the ordinary assembly (preemption, specificity, sorting), so
// sequential and parallel runs order their answers identically.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"pathcomplete/internal/label"
)

// parallelEligible reports whether the parallel path applies: it is
// opted into (Parallel >= 2), no single-threaded-by-contract tracer is
// attached, no traversal-order-dependent budget (MaxCalls, MaxPaths)
// is set, the pattern carries no regex constraint (the widened
// automaton-product state would have to be threaded through the branch
// seeding; constrained queries stay sequential), and the root actually
// has branches to fan out. Pushed-down predicates do not gate: they
// are baked into the compiled transition index the branches share.
func (c *Completer) parallelEligible(pat *pattern, cp *compiled) bool {
	o := &c.opts
	if o.Parallel < 2 || o.Tracer != nil || o.MaxCalls > 0 || o.MaxPaths > 0 {
		return false
	}
	if pat.cols != nil {
		return false
	}
	_, kids := cp.moves(pat.root, 0)
	return len(kids) >= 2
}

// sharedBound is the cross-branch best[T] exchange used in exact mode:
// an atomically published AGG*-closed key set workers merge into their
// local bound between subtrees. Publication is lossless (CAS-merge),
// consumption is amortized (every stopCheckInterval traverse calls),
// and correctness never depends on timing — the bound only prunes
// paths provably unable to reach the optimal set (see the file
// comment).
type sharedBound struct {
	v atomic.Pointer[label.Packed]
}

func newSharedBound(seed label.Packed) *sharedBound {
	sb := &sharedBound{}
	ks := slices.Clone(seed)
	sb.v.Store(&ks)
	return sb
}

// publish folds the caller's bound into the published one. Lock-free:
// on CAS failure the merge is recomputed against the new snapshot.
func (sb *sharedBound) publish(local label.Packed) {
	for {
		cur := sb.v.Load()
		merged := slices.Clone(*cur)
		if !merged.Merge(local) {
			return // nothing new to publish
		}
		if sb.v.CompareAndSwap(cur, &merged) {
			return
		}
	}
}

// refreshShared folds the published bound into the engine's local
// best[T], dropping the found paths it makes stale. Called from
// traverse's amortized check block.
func (en *engine) refreshShared() {
	if en.bestT.Merge(*en.shared.v.Load()) {
		en.dropStale()
	}
}

// branchOut carries one root branch's results to the merge.
type branchOut struct {
	found []foundEntry
	stats Stats
	stop  StopReason
}

// runParallel is the parallel counterpart of engine.run: acc, prepared
// for one compiled pattern, seeds the branches and hosts the merge.
func (c *Completer) runParallel(acc *engine) *Result {
	ctx, pat, cp := acc.ctx, acc.pat, acc.cp
	root := pat.root
	comps, kids := cp.moves(root, 0)

	// Phase 1 — deterministic seed bound: offer the root's completing
	// moves first (the early-target exploration of line (2), hoisted out
	// of the fan-out). The accumulator engine also hosts the final merge.
	acc.visited[root] = true
	acc.stats.Calls++ // the root visit, counted once as in the sequential sweep
	if !acc.opts.NoEarlyTarget {
		acc.offerAll(0, 0, comps, label.IncIdentity(), label.Identity())
	}
	seed := slices.Clone(acc.bestT)
	var shared *sharedBound
	if c.opts.DisableBestU {
		shared = newSharedBound(seed)
	}

	// Phase 2 — fan the root branches across the worker pool.
	outs := make([]branchOut, len(kids))
	workers := c.opts.Parallel
	if workers > len(kids) {
		workers = len(kids)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outs[i] = c.runBranch(ctx, pat, cp, kids[i], seed, shared)
			}
		}()
	}
	for i := range kids {
		next <- i
	}
	close(next)
	wg.Wait()

	// Phase 3 — deterministic merge in branch order: fold each branch's
	// surviving entries through the ordinary admission logic, which
	// rebuilds the global best[T] (order-independent, property 1) and
	// drops entries that fell out of it.
	for i := range outs {
		for _, f := range outs[i].found {
			acc.admitEntry(f)
		}
		acc.stats.Calls += outs[i].stats.Calls
		acc.stats.Offers += outs[i].stats.Offers
		acc.stats.PrunedBestT += outs[i].stats.PrunedBestT
		acc.stats.PrunedBestU += outs[i].stats.PrunedBestU
		acc.stats.CautionSaves += outs[i].stats.CautionSaves
		if acc.stop == StopNone && outs[i].stop != StopNone {
			acc.stop = outs[i].stop
		}
	}
	if acc.opts.NoEarlyTarget {
		acc.offerAll(0, 0, comps, label.IncIdentity(), label.Identity())
	}
	acc.visited[root] = false
	return acc.assemble()
}

// runBranch searches the subtree behind one root branch: it replays
// the child-loop body of traverse for that branch (acyclicity, bounds,
// best[u] seeding), recurses, and hands back its surviving entries.
func (c *Completer) runBranch(ctx context.Context, pat *pattern, cp *compiled, tr trans, seed label.Packed, shared *sharedBound) branchOut {
	en := c.getEngineFor(ctx, pat, cp)
	en.shared = shared
	copy(en.bestT, seed)
	root := pat.root
	en.visited[root] = true
	defer func() {
		en.visited[root] = false
		c.putEngine(en)
	}()

	u := tr.rel.To
	if en.visited[u] {
		return branchOut{} // self-loop at the root: line (8)
	}
	lu := label.IncIdentity().Extend(tr.rel.Conn)
	key := lu.Key()
	if shared != nil {
		en.refreshShared()
	}
	if !en.opts.DisableBestT && !en.bestT.Fits(key) {
		en.stats.PrunedBestT++
		return branchOut{stats: en.stats}
	}
	toSeg := tr.step // the root state is segment 0
	if !en.opts.DisableBestU {
		en.newSlot(int(u)*en.numSegs + toSeg).Insert(key)
	}
	en.visited[u] = true
	en.path = append(en.path, tr.rel.ID)
	// q = 0: constrained patterns never reach the parallel path (see
	// parallelEligible), so every segment's automaton state is trivial.
	en.traverse(u, toSeg, 0, lu, label.Identity())
	en.path = en.path[:len(en.path)-1]
	en.visited[u] = false // restore the all-false pool invariant

	// Hand the entries off before the engine is pooled: the entry
	// structs are copied out, and the rels they point to are per-query
	// allocations the pool never touches.
	return branchOut{
		found: append([]foundEntry(nil), en.found...),
		stats: en.stats,
		stop:  en.stop,
	}
}
