package closure

// Edge-granular closure reuse on schema reload. A reload installs a
// fresh schema generation with freshly assigned dense IDs, and the
// naive policy rebuilds the whole all-pairs index from scratch. Most
// reloads touch a handful of edges, and a materialized cell records —
// in Result.Support — exactly which edges its answer depends on, so a
// cell whose support is untouched by the diff is still the correct
// answer and only needs its RelIDs rehydrated against the new
// generation.
//
// The soundness argument below holds only for the exact search
// (core.Options.DisableBestU): its answer is a function of the
// consistent paths alone, so a diff that keeps every witness keeps the
// answer. Under per-node best[u] pruning (the paper and safe presets)
// the answer also depends on which prefixes were pruned at shared
// nodes, and removing an edge outside a cell's Support changes that:
// a path the old traversal pruned can now survive and reach a better
// label. On a 48-class cupid schema under the paper preset, one reload
// that dropped an association served a reused cell with 3 completions
// where a fresh search gives 9. Reuse is therefore ruled out wholesale
// unless best[u] pruning is off, and the pass degenerates to Build.
//
// For the exact search, cell by cell:
//
//   - Classes must be identical (same names, order, primitive flags):
//     ClassIDs are baked into resolved paths and root indexing.
//   - No edges may have been added anywhere in the schema: a new edge
//     can create new consistent paths with better labels for ANY cell,
//     and absence of competitors is not recorded anywhere.
//   - No removed or re-labeled edge may intersect the cell's Support.
//     Support is the union of every optimal-label witness found BEFORE
//     preemption/specificity/truncation, so every path whose presence
//     the answer's Best set or Completions list depends on is covered;
//     removing only non-witness edges shrinks Ψ without touching any
//     witness, and AGG*'s reductions cannot promote a dominated key
//     when its dominators all survive (connector dominance is a
//     transitive order, and the semantic-length cutoff is a function
//     of the surviving best-key witnesses alone).
//
// Cells that fail any condition — and cells whose Support is absent or
// incomplete (Truncated/Aborted) — are searched like the cells of a
// full build. Cells restored from a durable snapshot carry their
// Support (persisted since PCSNAP02) and are reused like built ones.
// Reused cells keep the Stats and flags of the search that originally
// produced them; differential validation therefore compares the answer
// view (completions, order, labels, best set), never Stats.

import (
	"pathcomplete/internal/core"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// ReuseReport summarizes one BuildReusing pass for logs and /stats.
type ReuseReport struct {
	// Eligible is false when reuse was ruled out wholesale (best[u]
	// pruning on, classes changed, edges added, or no previous index)
	// and the pass degenerated to a full build.
	Eligible bool
	// Reused and Rebuilt count cells by provenance.
	Reused, Rebuilt int
	// Added and Removed count diffed edges (including re-labelings,
	// which appear on both sides).
	Added, Removed int
}

// planReuse diffs prevSchema against cmp's schema and records the diff
// in rep. When reuse is eligible it returns the function that carries
// one cell over (nil when the cell must be searched); otherwise it
// returns nil and the pass is a full build.
func planReuse(cmp *core.Completer, prev *Index, prevSchema *schema.Schema, rep *ReuseReport) func(root schema.ClassID, anchor string) *core.Result {
	if prev == nil || prevSchema == nil {
		return nil
	}
	next := cmp.Schema()
	d := schema.Diff(prevSchema, next)
	rep.Added, rep.Removed = len(d.Added), len(d.Removed)
	rep.Eligible = cmp.Options().DisableBestU && d.ClassesEqual && len(d.Added) == 0
	if !rep.Eligible {
		return nil
	}
	removed := core.NewEdgeSet(0)
	for _, id := range d.RemovedIDs {
		removed.Add(id)
	}
	return func(root schema.ClassID, anchor string) *core.Result {
		return reuseCell(prev, d, next, root, anchor, removed)
	}
}

// reuseCell returns the rehydrated previous cell for (root, anchor),
// or nil when the cell cannot be soundly carried across the diff: it
// is missing, its Support is unknown or incomplete, or a removed edge
// intersects its Support. The caller has already established the
// schema-wide conditions (classes equal, nothing added). It only reads
// its arguments, so the build's workers call it concurrently.
func reuseCell(prev *Index, d *schema.SchemaDiff, next *schema.Schema, root schema.ClassID, anchor string, removed core.EdgeSet) *core.Result {
	old, ok := prev.Lookup(root, anchor)
	if !ok || old.Support == nil || old.Truncated || old.Aborted {
		return nil
	}
	if old.Support.Intersects(removed) {
		return nil
	}
	// Rehydrate: every completion's edges survive by the support check,
	// so they remap cleanly; resolving them against the new schema
	// recomputes identical labels (EdgeKey identity preserves the
	// connector) while repointing the paths at the new generation.
	out := *old
	out.Completions = make([]core.Completion, len(old.Completions))
	for i, c := range old.Completions {
		rels := make([]schema.RelID, len(c.Path.Rels))
		for j, rid := range c.Path.Rels {
			nr := d.RelMap[rid]
			if nr == schema.NoRel {
				return nil // unreachable given the support check; stay safe
			}
			rels[j] = nr
		}
		r, err := pathexpr.FromRels(next, root, rels)
		if err != nil {
			return nil // unreachable: classes equal and edges survive
		}
		out.Completions[i] = core.Completion{Path: r, Label: r.Label()}
	}
	out.Best = append([]label.Key(nil), old.Best...)
	support := core.NewEdgeSet(next.NumRels())
	for _, id := range old.Support.IDs() {
		support.Add(d.RelMap[id])
	}
	out.Support = support
	return &out
}
