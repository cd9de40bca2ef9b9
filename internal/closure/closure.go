// Package closure materializes the all-pairs side of the paper's
// path-algebra formulation: for one immutable schema snapshot it
// precomputes the optimal single-gap completion `root ~ anchor` for
// every non-primitive source class × every valid gap anchor, turning
// the dominant online query shape from a full Algorithm 2 search into
// a map lookup.
//
// Correctness is by construction, not by re-derivation: every cell is
// produced by core.Completer.AllPairsGap, which routes through the
// exact kernel dispatch the serving path uses (caution sets and the
// Inheritance Semantics Criterion included), so a materialized Result
// is bit-for-bit what the online search would have returned. The
// differential suite in this package locks that equality over the same
// generator corpus as core/oracle_test.go.
//
// Lifecycle: an Index is built once per schema snapshot — typically in
// the background by a Builder after a registry reload — and is
// immutable afterwards. Memory is bounded by a byte Budget with
// per-snapshot accounting: a build that would exceed the budget stops
// and the snapshot keeps serving through the on-the-fly kernel.
package closure

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathcomplete/internal/core"
	"pathcomplete/internal/schema"
)

// ErrBudget is returned by Build when materializing the next cell
// would exceed the byte budget. The partial build's reservation is
// released; the snapshot falls back to the search kernel.
var ErrBudget = errors.New("closure: byte budget exhausted")

// Index is the immutable all-pairs closure of one schema snapshot:
// for every valid gap anchor, the optimal completions from every
// non-primitive root class. Safe for concurrent use (it is never
// mutated after Build returns it).
type Index struct {
	schemaName string
	generation uint64
	// byAnchor maps anchor → dense per-class cells (indexed by
	// schema.ClassID; nil for primitive classes, which cannot root a
	// path expression).
	byAnchor map[string][]*core.Result
	anchors  int
	cells    int
	reused   int
	bytes    int64
	elapsed  time.Duration
	restored bool
}

// Lookup returns the materialized Result for `root ~ anchor`, or
// (nil, false) when the anchor is not a column of the index or the
// root cannot root an expression. The returned Result is shared and
// must be treated as immutable.
func (ix *Index) Lookup(root schema.ClassID, anchor string) (*core.Result, bool) {
	cells, ok := ix.byAnchor[anchor]
	if !ok || int(root) >= len(cells) {
		return nil, false
	}
	res := cells[root]
	if res == nil {
		return nil, false
	}
	return res, true
}

// SchemaName returns the registry name of the snapshot the index was
// built for.
func (ix *Index) SchemaName() string { return ix.schemaName }

// Generation returns the registry generation of that snapshot.
func (ix *Index) Generation() uint64 { return ix.generation }

// Anchors returns the number of anchor columns materialized.
func (ix *Index) Anchors() int { return ix.anchors }

// Cells returns the number of (root, anchor) cells materialized.
func (ix *Index) Cells() int { return ix.cells }

// ReusedCells returns how many cells were carried over from the
// previous generation's index by BuildReusing (0 for a full build).
func (ix *Index) ReusedCells() int { return ix.reused }

// Bytes returns the estimated resident size of the index — the amount
// reserved against the build Budget.
func (ix *Index) Bytes() int64 { return ix.bytes }

// BuildDuration returns the wall-clock time Build spent — or, for a
// restored index, the time deserialization spent.
func (ix *Index) BuildDuration() time.Duration { return ix.elapsed }

// Restored reports whether the index was rebuilt from a durable
// snapshot (internal/persist) rather than materialized by search.
func (ix *Index) Restored() bool { return ix.restored }

// Walk visits every materialized cell in deterministic order (anchors
// sorted, roots ascending) — the iteration the persistence layer
// serializes, so two saves of the same index are byte-identical.
func (ix *Index) Walk(fn func(anchor string, root schema.ClassID, res *core.Result)) {
	anchors := make([]string, 0, len(ix.byAnchor))
	for a := range ix.byAnchor {
		anchors = append(anchors, a)
	}
	sort.Strings(anchors)
	for _, a := range anchors {
		for root, res := range ix.byAnchor[a] {
			if res != nil {
				fn(a, schema.ClassID(root), res)
			}
		}
	}
}

// Restore assembles an Index from deserialized cells for the snapshot
// served as (name, gen). Cell, anchor, and byte accounting is
// recomputed from the cells themselves with the same estimator Build
// uses, so a restored index reserves exactly what the rebuild would
// have. elapsed records the deserialization time (surfaced as BuildMs
// with Restored set, so operators can read the cold-start win off
// /stats). The caller must not retain or mutate byAnchor.
func Restore(name string, gen uint64, byAnchor map[string][]*core.Result, elapsed time.Duration) *Index {
	ix := &Index{
		schemaName: name,
		generation: gen,
		byAnchor:   byAnchor,
		elapsed:    elapsed,
		restored:   true,
	}
	for _, cells := range byAnchor {
		ix.anchors++
		for _, res := range cells {
			if res != nil {
				ix.cells++
				ix.bytes += resultBytes(res)
			}
		}
	}
	return ix
}

// resultBytes estimates the resident size of one materialized Result:
// the rendered paths plus fixed per-completion overhead. Proportional,
// not exact — the budget is a safety bound, and the estimator matches
// the serving cache's so operators can reason about one unit.
func resultBytes(res *core.Result) int64 {
	const base = 256          // Result + slice headers + map bookkeeping
	const perCompletion = 128 // Resolved + label + slice headers
	size := int64(base) + int64(len(res.Best))*24
	for _, c := range res.Completions {
		size += perCompletion + int64(c.Path.StringLen())
	}
	return size
}

// Budget is a concurrency-safe byte budget shared by every build of
// one Builder, with per-snapshot accounting done by the reservations
// themselves: a build reserves as it materializes, releases on
// failure, and the finished Index's reservation is released when its
// snapshot retires. Max <= 0 means unbounded.
type Budget struct {
	max  int64
	used atomic.Int64
}

// NewBudget returns a budget of max bytes (<= 0: unbounded).
func NewBudget(max int64) *Budget { return &Budget{max: max} }

// Reserve claims n bytes, reporting whether they fit.
func (b *Budget) Reserve(n int64) bool {
	if b == nil {
		return true
	}
	for {
		cur := b.used.Load()
		if b.max > 0 && cur+n > b.max {
			return false
		}
		if b.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// Release returns n bytes to the budget.
func (b *Budget) Release(n int64) {
	if b != nil {
		b.used.Add(-n)
	}
}

// Used returns the bytes currently reserved across all live indexes
// and in-progress builds.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Max returns the budget bound (<= 0: unbounded).
func (b *Budget) Max() int64 {
	if b == nil {
		return 0
	}
	return b.max
}

// Build materializes the full all-pairs closure of the snapshot served
// as (name, gen): BuildReusing with no previous index.
func Build(ctx context.Context, name string, gen uint64, cmp *core.Completer, budget *Budget) (*Index, error) {
	ix, _, err := BuildReusing(ctx, name, gen, cmp, budget, nil, nil)
	return ix, err
}

// BuildReusing materializes the all-pairs closure of the snapshot
// served as (name, gen) by running cmp's kernel over every anchor ×
// root, carrying over the cells of prev (built against prevSchema)
// that reuse.go proves still correct. prev may be nil (a full build);
// it is only read, and may belong to a superseded snapshot.
//
// Cells are independent, so runtime.GOMAXPROCS(0) workers fill the
// anchor columns concurrently, each searching one column through one
// compiled index (core.AllPairsGap). The index is assembled in anchor
// order, so nothing in it depends on the worker count. The workers
// search concurrently, so cmp must not carry a core.Tracer, which
// serves one search at a time.
//
// Each filled column reserves its bytes against budget. On any error
// in any worker (ErrBudget, a search error, or cancellation via ctx)
// the other workers stop, the whole reservation is released and no
// Index is returned; no worker outlives the call. On success the
// returned Index owns its reservation; the caller releases
// Index.Bytes() when the snapshot retires.
func BuildReusing(ctx context.Context, name string, gen uint64, cmp *core.Completer, budget *Budget, prev *Index, prevSchema *schema.Schema) (*Index, *ReuseReport, error) {
	start := time.Now()
	rep := &ReuseReport{}
	reuse := planReuse(cmp, prev, prevSchema, rep)
	anchors := core.GapAnchors(cmp.Schema())
	cols := make([]column, len(anchors))

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(anchors)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(claimed.Add(1)) - 1; i < len(anchors); i = int(claimed.Add(1)) - 1 {
				if err := cols[i].fill(ctx, cmp, budget, reuse, anchors[i]); err != nil {
					cancel(err) // the first cause wins; later ones are no-ops
					return
				}
			}
		}()
	}
	wg.Wait()

	ix := &Index{
		schemaName: name,
		generation: gen,
		byAnchor:   make(map[string][]*core.Result, len(anchors)),
		anchors:    len(anchors),
	}
	for i, col := range cols {
		ix.byAnchor[anchors[i]] = col.cells
		ix.bytes += col.bytes
		rep.Reused += col.reused
		rep.Rebuilt += col.rebuilt
	}
	if err := context.Cause(ctx); err != nil {
		budget.Release(ix.bytes)
		return nil, rep, err
	}
	ix.cells = rep.Reused + rep.Rebuilt
	ix.reused = rep.Reused
	ix.elapsed = time.Since(start)
	return ix, rep, nil
}

// column is one anchor's share of a build: its cells, indexed by
// ClassID, the bytes it reserved, and where its cells came from.
type column struct {
	cells           []*core.Result
	bytes           int64
	reused, rebuilt int
}

// fill materializes the cells of one anchor, the reusable ones first
// and then one AllPairsGap sweep over the roots still empty, and
// reserves their bytes.
func (col *column) fill(ctx context.Context, cmp *core.Completer, budget *Budget, reuse func(schema.ClassID, string) *core.Result, anchor string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	col.cells = make([]*core.Result, cmp.Schema().NumClasses())
	if reuse != nil {
		for root := range col.cells {
			if res := reuse(schema.ClassID(root), anchor); res != nil {
				col.cells[root] = res
				col.reused++
			}
		}
	}
	err := cmp.AllPairsGap(ctx, anchor,
		func(root schema.ClassID) bool { return col.cells[root] == nil },
		func(root schema.ClassID, res *core.Result) {
			col.cells[root] = res
			col.rebuilt++
		})
	if err != nil {
		return fmt.Errorf("closure: anchor %q: %w", anchor, err)
	}
	n := int64(0)
	for _, res := range col.cells {
		if res != nil {
			n += resultBytes(res)
		}
	}
	if !budget.Reserve(n) {
		return ErrBudget
	}
	col.bytes = n
	return nil
}
