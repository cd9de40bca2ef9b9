package core

// This file implements the compiled search kernel's schema index: the
// admissible moves of every product-space state (class × pattern
// segment), derived once per (schema, pattern, options) triple and
// laid out as two CSR-style flat arrays. The per-visit work of
// engine.transitions — out-edge filtering, gap/exclusion logic, and a
// sort — becomes two slice-view lookups with no allocation. The
// product space is known up front (the pattern is fixed for the whole
// search, the schema for the whole Completer), so this is the classic
// product-automaton precompilation of regular-path-query engines
// applied to Algorithm 2.

import (
	"context"
	"sync"
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

// compiled is the flat transition index for one pattern over one
// schema. Row r = int(class)*numSegs + seg holds the completing moves
// comps[compOff[r]:compOff[r+1]] and the ordinary children
// kids[kidOff[r]:kidOff[r+1]], in exactly the order dynTransitions
// produces (completions in schema.Out order, children sorted
// best-edge-first) — the compiled and dynamic engines therefore
// traverse identically.
type compiled struct {
	pat     *pattern
	numSegs int
	compOff []int32
	kidOff  []int32
	comps   []trans
	kids    []trans
}

// moves returns slice views into the index; callers must not modify
// them.
func (cp *compiled) moves(v schema.ClassID, seg int) (comps, kids []trans) {
	row := int(v)*cp.numSegs + seg
	return cp.comps[cp.compOff[row]:cp.compOff[row+1]],
		cp.kids[cp.kidOff[row]:cp.kidOff[row+1]]
}

// newCompiled builds the index by running the dynamic derivation once
// per state. Construction is O(classes × segments × out-degree); the
// arrays are immutable afterwards and shared by every search of the
// owning Completer.
func newCompiled(s *schema.Schema, pat *pattern, opts Options) *compiled {
	numSegs := len(pat.segs)
	rows := s.NumClasses() * numSegs
	cp := &compiled{
		pat:     pat,
		numSegs: numSegs,
		compOff: make([]int32, rows+1),
		kidOff:  make([]int32, rows+1),
	}
	row := 0
	for v := 0; v < s.NumClasses(); v++ {
		for seg := 0; seg < numSegs; seg++ {
			comps, kids := dynTransitions(s, pat, &opts, schema.ClassID(v), seg)
			cp.comps = append(cp.comps, comps...)
			cp.kids = append(cp.kids, kids...)
			cp.compOff[row+1] = int32(len(cp.comps))
			cp.kidOff[row+1] = int32(len(cp.kids))
			row++
		}
	}
	return cp
}

// maxCompiledPatterns bounds the per-Completer pattern memo. Real
// workloads see a small set of expression shapes; past the bound,
// searches still compile (and run at full speed) but the index is not
// retained, so an adversarial stream of distinct expressions cannot
// grow memory without bound.
const maxCompiledPatterns = 512

// patternMemo memoizes compiled indexes per pattern content, keyed by
// an FNV hash with full equality verification on the bucket (hash
// collisions cost a compare, never a wrong index).
type patternMemo struct {
	mu      sync.RWMutex
	buckets map[uint64][]*compiled
	n       int
}

func (m *patternMemo) lookup(h uint64, pat *pattern) *compiled {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, cp := range m.buckets[h] {
		if patEqual(cp.pat, pat) {
			return cp
		}
	}
	return nil
}

// insert stores cp unless an equal pattern won the race, returning the
// retained index either way.
func (m *patternMemo) insert(h uint64, cp *compiled) *compiled {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, old := range m.buckets[h] {
		if patEqual(old.pat, cp.pat) {
			return old
		}
	}
	if m.n >= maxCompiledPatterns {
		return cp // full: serve the fresh index without retaining it
	}
	if m.buckets == nil {
		m.buckets = make(map[uint64][]*compiled)
	}
	m.buckets[h] = append(m.buckets[h], cp)
	m.n++
	return cp
}

// drop releases every memoized index (see Completer.Close).
func (m *patternMemo) drop() {
	m.mu.Lock()
	m.buckets = nil
	m.n = 0
	m.mu.Unlock()
}

// compiledFor returns the memoized index for pat, building it on first
// use. Safe for concurrent use; the warm path is one hash and one
// RLock'd bucket probe.
func (c *Completer) compiledFor(pat *pattern) *compiled {
	h := patHash(pat)
	if cp := c.memo.lookup(h, pat); cp != nil {
		return cp
	}
	return c.memo.insert(h, newCompiled(c.s, pat, c.opts))
}

func patEqual(a, b *pattern) bool {
	if a.root != b.root || len(a.segs) != len(b.segs) {
		return false
	}
	for i := range a.segs {
		x, y := &a.segs[i], &b.segs[i]
		// Field-wise on identity, not struct equality: dfa and predOK
		// are derived deterministically from (constraint, predSrc) over
		// the Completer's fixed schema, so the sources alone decide
		// pattern identity.
		if x.kind != y.kind || x.conn != y.conn || x.name != y.name ||
			x.class != y.class || x.constraint != y.constraint || x.predSrc != y.predSrc {
			return false
		}
	}
	return true
}

// patHash is FNV-1a over the pattern's content.
func patHash(p *pattern) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h = (h ^ x) * prime64
	}
	mix(uint64(uint32(p.root)))
	for _, sg := range p.segs {
		mix(uint64(sg.kind))
		mix(uint64(sg.conn.Kind))
		if sg.conn.Possibly {
			mix(1)
		} else {
			mix(0)
		}
		for i := 0; i < len(sg.name); i++ {
			mix(uint64(sg.name[i]))
		}
		mix(uint64(uint32(sg.class)))
		for i := 0; i < len(sg.constraint); i++ {
			mix(uint64(sg.constraint[i]))
		}
		mix(uint64(len(sg.constraint)))
		for i := 0; i < len(sg.predSrc); i++ {
			mix(uint64(sg.predSrc[i]))
		}
		mix(uint64(len(sg.predSrc)))
	}
	return h
}

// getEngineFor takes a recycled engine from the pool (or builds one)
// and prepares it for a search of pat over cp under the completer's
// options. pat is explicit because callers may share one compiled index
// across patterns differing only in root (the transition rows are
// root-independent; see newCompiled).
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
