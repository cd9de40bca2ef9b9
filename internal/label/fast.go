package label

// This file implements the allocation-free fast path used by the
// compiled search kernel (internal/core):
//
//   - Packed is an AGG*-closed key set — a best[] set of Algorithm 2 —
//     packed into E machine words, with the membership test of lines
//     (9)–(10) in two word reads (Fits, the alloc-free equivalent of
//     In), the O(E) fold of one key at line (12) (Insert, the alloc-free
//     equivalent of AggStar(append(ks, k), e)), and the union of its
//     connectors for the caution-set escape of line (11);
//   - Inc is an incremental [connector, semantic-length] label that
//     extends by one primary edge in O(1), without materializing the
//     run-collapsed connector sequence Label carries.
//
// Both are property-tested against their reference counterparts (In,
// AggStar, Con∘Edge) over randomized inputs in fast_test.go.
//
// The packing rests on one invariant: the package-default connector
// order is graded (connector.Better compares strength ranks;
// TestBetterIsGraded fails if it stops being so). The survivors of
// AGG*'s primary reduction are therefore exactly the keys of minimum
// rank, so an AGG*-closed set has a single rank and at most E distinct
// semantic lengths, each carrying a set of connectors of that rank. The
// same invariant makes folding compositional: the engine builds best[]
// sets by folding Insert from the empty set, whereas the reference
// semantics is one batch AggStar over all keys ever offered. A key
// dominated early can never resurrect later — dominance is witnessed by
// rank alone, and the rank of a set only improves.
// TestInsertFoldMatchesBatch verifies this over random insertion orders.

import (
	"sort"

	"pathcomplete/internal/connector"
)

// Packed is an AGG*-closed key set held in E words, E >= 1 the AGG*
// parameter it is closed under. Word i describes the i-th lowest
// distinct semantic length of the set:
//
//	semlen<<32 | rank<<16 | connector mask
//
// where the mask is the connector.Set of the keys at that length and
// rank their common strength rank (the same in every word). Words are
// sorted by semantic length, so they also compare as integers; unused
// words are zero and trail the used ones, and a used word is never zero
// because its mask is not. The representation is canonical: two
// Packed sets of the same E hold the same keys iff their words are
// equal. The empty set is all zeros, the zero value of its E words.
//
// A Packed is a view: it may alias an arena of slots, and its methods
// never allocate or change its length. Semantic lengths must be below
// 2^32, which any path of a schema is.
type Packed []uint64

const (
	packedMask      = 1<<16 - 1
	packedRankShift = 16
	packedLenShift  = 32
)

// NewPacked returns an empty set closed under AGG* with parameter e
// (values below 1 are treated as 1).
func NewPacked(e int) Packed {
	if e < 1 {
		e = 1
	}
	return make(Packed, e)
}

// packWord returns the word of the one-key set {k}.
func packWord(k Key) uint64 {
	var m connector.Set
	m.Add(k.Conn)
	return uint64(k.SemLen)<<packedLenShift | uint64(k.Conn.Rank())<<packedRankShift | uint64(m)
}

func wordRank(w uint64) uint64 { return w >> packedRankShift & packedMask }

// Fits reports whether k survives AggStar({k} ∪ p, E) — exactly
// In(k, keys of p, E). A lower rank than the set's dominates every
// member; a higher one is dominated; at the same rank k survives iff
// fewer than E distinct semantic lengths lie strictly below its own,
// that is, iff the set has a free word or k is no longer than the E-th
// length.
func (p Packed) Fits(k Key) bool {
	if p[0] == 0 {
		return true
	}
	if r, pr := uint64(k.Conn.Rank()), wordRank(p[0]); r != pr {
		return r < pr
	}
	last := p[len(p)-1]
	return last == 0 || uint64(k.SemLen) <= last>>packedLenShift
}

// Insert folds k into the set in place — afterwards p holds
// AggStar(keys of p ∪ {k}, E) — and reports whether the set changed.
func (p Packed) Insert(k Key) bool { return p.insertWord(packWord(k)) }

// insertWord folds the keys of one word w (one semantic length, one
// rank, any connector mask of that rank) into the set and reports
// whether the set changed.
func (p Packed) insertWord(w uint64) bool {
	if p[0] == 0 || wordRank(w) < wordRank(p[0]) {
		p[0] = w // the set was empty, or w dominates all of it
		clear(p[1:])
		return true
	}
	if wordRank(w) > wordRank(p[0]) {
		return false // dominated
	}
	l := w >> packedLenShift
	for i, x := range p {
		switch xl := x >> packedLenShift; {
		case x == 0:
			p[i] = w
			return true
		case xl == l:
			p[i] = x | w // same length and rank: add the connectors
			return p[i] != x
		case xl > l:
			copy(p[i+1:], p[i:]) // the E-th length, if any, falls out
			p[i] = w
			return true
		}
	}
	return false // longer than the E-th length: evicted
}

// Merge folds every key of q into p in place and reports whether p
// changed; q must have p's E.
func (p Packed) Merge(q Packed) bool {
	changed := false
	for _, w := range q {
		if w == 0 {
			break
		}
		if p.insertWord(w) {
			changed = true
		}
	}
	return changed
}

// Has reports whether k is a member of the set.
func (p Packed) Has(k Key) bool {
	w := packWord(k)
	for _, x := range p {
		if x == 0 || x>>packedLenShift > w>>packedLenShift {
			return false
		}
		if x>>packedLenShift == w>>packedLenShift {
			return x&w&packedMask != 0
		}
	}
	return false
}

// Conns returns the union of the set's connectors.
func (p Packed) Conns() connector.Set {
	var m uint64
	for _, x := range p {
		m |= x
	}
	return connector.Set(m & packedMask)
}

// Len returns the number of keys in the set.
func (p Packed) Len() int {
	n := 0
	for _, x := range p {
		n += connector.Set(x & packedMask).Len()
	}
	return n
}

// Reset empties the set.
func (p Packed) Reset() { clear(p) }

// AppendKeys appends the set's keys to dst in display order — semantic
// length first, then connector symbol — the order AggStar returns.
func (p Packed) AppendKeys(dst []Key) []Key {
	for _, x := range p {
		if x == 0 {
			break
		}
		m := connector.Set(x & packedMask)
		for _, c := range bySymbol {
			if m.Has(c) {
				dst = append(dst, Key{Conn: c, SemLen: int(x >> packedLenShift)})
			}
		}
	}
	return dst
}

// bySymbol lists Σ sorted by connector symbol, the tiebreak of
// display order.
var bySymbol = func() []connector.Connector {
	cs := connector.All()
	sort.Slice(cs, func(i, j int) bool { return cs[i].String() < cs[j].String() })
	return cs
}()

// Inc is the incremental view of a path label: just enough state to
// extend [connector, semantic length] by one primary edge in O(1).
// Per footnote 3 of the paper, semantic length is not compositional on
// [connector, length] pairs alone; the extra structure needed at the
// growing end of the path is exactly the last element of the
// run-collapsed connector sequence, which Inc carries in place of
// Label's full sequence. The zero value is NOT the identity; use
// IncIdentity.
type Inc struct {
	conn    connector.Connector
	last    connector.Connector // last element of the collapsed sequence
	semLen  int32
	hasLast bool // false for the empty path (no sequence yet)
}

// IncIdentity returns the incremental view of Identity(), the label
// Θ = [@>, 0] of the empty path.
func IncIdentity() Inc { return Inc{conn: connector.CIsa} }

// Extend returns the label of the path extended by one edge with
// primary connector c: the incremental equivalent of
// Con(l, MustEdge(c)).
func (l Inc) Extend(c connector.Connector) Inc {
	out := Inc{conn: connector.Con(l.conn, c), last: c, hasLast: true, semLen: l.semLen}
	if l.hasLast && l.last == c && collapsible(c.Kind) {
		return out // restructuring step 1: the run collapses; no new element
	}
	if c.Kind == connector.Isa || c.Kind == connector.MayBe {
		// Step 2: a maximal series of interchanged @>/<@ elements counts
		// its length minus one, so only extending an existing series
		// adds semantic length.
		if l.hasLast && (l.last.Kind == connector.Isa || l.last.Kind == connector.MayBe) {
			out.semLen++
		}
	} else {
		out.semLen++
	}
	return out
}

// Conn returns the composed connector of the path.
func (l Inc) Conn() connector.Connector { return l.conn }

// SemLen returns the semantic length of the path.
func (l Inc) SemLen() int { return int(l.semLen) }

// Key returns the [connector, semantic length] view of the label.
func (l Inc) Key() Key { return Key{Conn: l.conn, SemLen: int(l.semLen)} }
