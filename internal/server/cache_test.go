package server

import (
	"runtime"
	"strconv"
	"testing"

	"pathcomplete/internal/core"
)

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoChurnHeapFlat: a full memo under constant insert/evict churn
// keeps a flat retained heap. Every put of a new key evicts the coldest
// one, so the live count stays at the cap; the heap the memo retains
// after 20k puts and after 160k puts must be about the same, however
// many requests have been served.
func TestMemoChurnHeapFlat(t *testing.T) {
	const live = 4096
	res := &core.Result{}
	key := func(i int) cacheKey {
		return cacheKey{shard: shardID{schema: "s", gen: 1}, expr: "k" + strconv.Itoa(i), e: 1}
	}
	base := liveHeap()
	c := newShardedCache(live)
	retained := func(from, to int) uint64 {
		for i := from; i < to; i++ {
			c.put(key(i), res)
		}
		if c.len() != live {
			t.Fatalf("memo holds %d entries, want %d", c.len(), live)
		}
		return liveHeap() - base
	}
	early := retained(0, 20_000)
	late := retained(20_000, 160_000)
	runtime.KeepAlive(c)
	t.Logf("retained heap: %d B after 20k puts, %d B after 160k puts", early, late)
	if late > early+early/8 {
		t.Errorf("memo retained heap grew from %d B to %d B between 20k and 160k puts with %d live entries", early, late, live)
	}
}
