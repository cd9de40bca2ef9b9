package server

// A sharded, byte-budgeted LRU over completion results. The memo cache
// is what makes the interactive loop feel instant (the user refines an
// expression; everything already explored re-answers from memory), but
// in a multi-schema server an unbounded map is both a memory leak and
// a staleness hazard: each distinct (schema, generation, expression, E)
// tuple is a new key, expressions are attacker-controlled, and a
// reload must never let a pre-reload answer serve a post-reload query.
//
// The design:
//
//   - Entries shard per (schema, generation). A reload moves traffic
//     to a fresh shard automatically — the generation is part of the
//     shard identity — and the superseded shard is dropped explicitly
//     (dropStale) rather than waiting for capacity pressure.
//   - Recency is global: one LRU list spans all shards, and both the
//     entry cap and the byte budget evict from the global cold end.
//     A busy schema can therefore use the whole budget while an idle
//     one keeps only its recent handful — but eviction never reaches
//     across shards for any reason other than recency, so evicting
//     schema A's cold entries cannot touch B's warm ones.
//   - The byte budget tracks an estimate of each Result's resident
//     size (paths, labels, best keys), so one schema with huge answer
//     sets cannot blow the process heap while staying under the entry
//     cap.

import (
	"container/list"

	"pathcomplete/internal/core"
)

// DefaultCacheCap bounds the completion memo cache entry count when
// the caller does not choose a size.
const DefaultCacheCap = 4096

// DefaultCacheBudget bounds the estimated resident bytes of cached
// results across all schema shards. Completion results are small (a
// handful of resolved paths), so 64 MiB is a safety bound for the
// adversarial case, not a tuning parameter for the ordinary one.
const DefaultCacheBudget = 64 << 20

// shardID identifies one schema generation's cache shard.
type shardID struct {
	schema string
	gen    uint64
}

// cacheKey identifies one memoized completion. It doubles as the
// singleflight key, and therefore MUST carry the schema generation:
// collapsing a cold query into an in-flight search of a pre-reload
// snapshot would hand back a pre-reload answer.
type cacheKey struct {
	shard shardID
	expr  string
	e     int
}

type cacheEntry struct {
	key  cacheKey
	res  *core.Result
	size int64
}

// resultBytes estimates the resident size of a cached result: the
// strings it will render plus fixed per-completion overhead. The
// estimate only needs to be proportional, not exact — the budget is a
// safety bound.
func resultBytes(res *core.Result) int64 {
	const base = 256          // Result + slice headers + list/map bookkeeping
	const perCompletion = 128 // Resolved + label + slice headers
	size := int64(base) + int64(len(res.Best))*24
	for _, c := range res.Completions {
		size += perCompletion + int64(len(c.Path.String()))
	}
	return size
}

// shardedCache is the sharded byte-budget LRU. It is not safe for
// concurrent use; the Server guards it with its mutex.
type shardedCache struct {
	maxEntries int
	used       int64
	ll         *list.List // front = most recently used, across all shards
	items      map[cacheKey]*list.Element
	// deletes counts removals from items since it was last rebuilt; see
	// removeElement.
	deletes int
}

func newShardedCache(maxEntries int) *shardedCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheCap
	}
	return &shardedCache{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[cacheKey]*list.Element),
	}
}

// get returns the cached result and refreshes its global recency.
func (c *shardedCache) get(k cacheKey) (*core.Result, bool) {
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put inserts (or refreshes) a result and reports how many entries the
// entry cap and byte budget evicted.
func (c *shardedCache) put(k cacheKey, res *core.Result) int {
	size := resultBytes(res)
	if el, ok := c.items[k]; ok {
		ent := el.Value.(*cacheEntry)
		c.used += size - ent.size
		ent.res, ent.size = res, size
		c.ll.MoveToFront(el)
		return c.evictOver()
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, res: res, size: size})
	c.used += size
	return c.evictOver()
}

// evictOver evicts globally-least-recent entries until both bounds
// hold.
func (c *shardedCache) evictOver() int {
	evicted := 0
	for c.ll.Len() > c.maxEntries || (c.used > DefaultCacheBudget && c.ll.Len() > 0) {
		c.removeElement(c.ll.Back())
		evicted++
	}
	return evicted
}

func (c *shardedCache) removeElement(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	// Under constant insert/delete churn a Go map's table keeps growing
	// after its live count has stopped growing (seen on Go 1.24), so
	// the memo's retained heap would grow with the number of requests
	// served. Once maxEntries deletions have accumulated, items moves
	// to a fresh map sized to the live count: O(live) <= O(maxEntries)
	// work every maxEntries deletions, amortized O(1).
	if c.deletes++; c.deletes >= c.maxEntries {
		items := make(map[cacheKey]*list.Element, len(c.items))
		for k, v := range c.items {
			items[k] = v
		}
		c.items, c.deletes = items, 0
	}
	c.used -= ent.size
}

// dropStale removes every entry whose shard fails keep — the reload
// hook: superseded generations are invalidated eagerly and surgically,
// without touching any live shard's entries. It reports the number of
// entries dropped.
func (c *shardedCache) dropStale(keep func(shardID) bool) int {
	dropped := 0
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if !keep(el.Value.(*cacheEntry).key.shard) {
			c.removeElement(el)
			dropped++
		}
	}
	return dropped
}

func (c *shardedCache) len() int     { return c.ll.Len() }
func (c *shardedCache) bytes() int64 { return c.used }
