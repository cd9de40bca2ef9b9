// Package label implements the path labels of Ioannidis & Lashkari
// (SIGMOD 1994), Sections 3.2–3.4: the values manipulated by the CON
// and AGG functions of the path-computation formulation.
//
// The label of a path is conceptually the pair [connector, semantic
// length]. As footnote 3 of the paper notes, computing semantic length
// compositionally requires labels to carry a little extra structure
// about the edges at the path ends; we carry the full run-collapsed
// edge-connector sequence (the output of restructuring step 1), which
// makes Con exact and associative by construction while remaining a
// few elements long in practice.
package label

import (
	"fmt"
	"sort"

	"pathcomplete/internal/connector"
)

// Label is the label of a schema path: the composed connector of the
// whole path plus the run-collapsed sequence of its primary edge
// connectors, from which the semantic length is derived. The zero
// value is the identity label Θ = [@>, 0] of an empty path.
type Label struct {
	conn connector.Connector
	// seq is the edge-connector sequence after restructuring step 1 of
	// Section 3.3.2: maximal contiguous runs of one of @>, <@, $>, <$
	// are collapsed to a single element; association edges are kept
	// verbatim. It contains primary connectors only.
	seq []connector.Connector
}

// Identity returns Θ, the identity of Con: the label [@>, 0] of the
// empty path.
func Identity() Label { return Label{conn: connector.CIsa} }

// edgeCache holds the five single-edge labels, indexed by primary
// kind. Edge labels are requested once per visited edge on the search
// hot path; sharing one immutable singleton sequence per connector
// removes that per-visit allocation. Con never mutates its inputs'
// sequences (it builds fresh merged slices), so sharing is safe.
var edgeCache = func() [5]Label {
	var out [5]Label
	for _, c := range connector.Primaries() {
		out[c.Kind] = Label{conn: c, seq: []connector.Connector{c}}
	}
	return out
}()

// Edge returns the label of a single schema edge with connector c,
// which must be primary (one of @>, <@, $>, <$, .). The returned
// label shares an immutable cached sequence; callers must not modify
// it (no exported API does).
func Edge(c connector.Connector) (Label, error) {
	if !c.Primary() {
		return Label{}, fmt.Errorf("label: edge connector must be primary, got %v", c)
	}
	return edgeCache[c.Kind], nil
}

// MustEdge is Edge, panicking on a non-primary connector.
func MustEdge(c connector.Connector) Label {
	l, err := Edge(c)
	if err != nil {
		panic(err)
	}
	return l
}

// Path returns the label of a path with the given edge connectors, in
// order. It is equivalent to folding Con over Edge labels.
func Path(cs ...connector.Connector) (Label, error) {
	l := Identity()
	for _, c := range cs {
		e, err := Edge(c)
		if err != nil {
			return Label{}, err
		}
		l = Con(l, e)
	}
	return l, nil
}

// MustPath is Path, panicking on error.
func MustPath(cs ...connector.Connector) Label {
	l, err := Path(cs...)
	if err != nil {
		panic(err)
	}
	return l
}

// collapsible reports whether runs of this kind merge in restructuring
// step 1 (the kinds on which CON_c is idempotent).
func collapsible(k connector.Kind) bool {
	switch k {
	case connector.Isa, connector.MayBe, connector.HasPart, connector.IsPartOf:
		return true
	}
	return false
}

// Con composes two path labels (the CON function of Section 3.3). It
// is associative and has Identity() as a two-sided identity; both
// properties are verified in tests.
func Con(a, b Label) Label {
	out := Label{conn: connector.Con(a.conn, b.conn)}
	switch {
	case len(a.seq) == 0:
		out.seq = b.seq
	case len(b.seq) == 0:
		out.seq = a.seq
	default:
		merge := a.seq[len(a.seq)-1] == b.seq[0] && collapsible(b.seq[0].Kind)
		bs := b.seq
		if merge {
			bs = bs[1:]
		}
		seq := make([]connector.Connector, 0, len(a.seq)+len(bs))
		seq = append(seq, a.seq...)
		seq = append(seq, bs...)
		out.seq = seq
	}
	return out
}

// Conn returns the composed connector of the path.
func (l Label) Conn() connector.Connector { return l.conn }

// SemLen returns the semantic length of the path (Section 3.3.2): the
// length of the edge sequence after restructuring steps 1 and 2. Runs
// of a single structural connector count once; each maximal series of
// interchanged @> and <@ connectors counts its length minus one; every
// other edge counts one.
func (l Label) SemLen() int {
	n := 0
	for i := 0; i < len(l.seq); {
		if k := l.seq[i].Kind; k == connector.Isa || k == connector.MayBe {
			j := i
			for j < len(l.seq) {
				if k := l.seq[j].Kind; k != connector.Isa && k != connector.MayBe {
					break
				}
				j++
			}
			n += j - i - 1 // step 2: one edge of the series is removed
			i = j
			continue
		}
		n++
		i++
	}
	return n
}

// Key returns the comparable [connector, semantic length] view of the
// label — the part AGG orders on, and the natural key for best[] sets.
func (l Label) Key() Key { return Key{Conn: l.conn, SemLen: l.SemLen()} }

// String renders the label as the paper writes it, e.g. "[$>, 1]".
func (l Label) String() string { return l.Key().String() }

// Key is the ordered view of a label: its composed connector and
// semantic length.
type Key struct {
	Conn   connector.Connector
	SemLen int
}

// String renders the key as "[conn, semlen]".
func (k Key) String() string { return fmt.Sprintf("[%v, %d]", k.Conn, k.SemLen) }

// Order is a strict partial order on connectors, the primary criterion
// of AGG. The package-default order is the paper's ≺ (Figure 3,
// connector.Better); alternatives exist for the ordering ablation the
// paper alludes to in its conclusions.
type Order func(a, b connector.Connector) bool

// DominatesUnder reports whether a is strictly preferable to b with
// the given connector order as the primary criterion and semantic
// length as the secondary one (Section 3.4).
func DominatesUnder(ord Order, a, b Key) bool {
	if ord(a.Conn, b.Conn) {
		return true
	}
	if ord(b.Conn, a.Conn) {
		return false // b's connector is better; semantic length is moot
	}
	return a.SemLen < b.SemLen
}

// Dominates reports whether a is strictly preferable to b under the
// AGG ordering of Section 3.4: primarily by the better-than partial
// order on connectors, secondarily (for incomparable connectors) by
// smaller semantic length.
func Dominates(a, b Key) bool {
	return DominatesUnder(connector.Better, a, b)
}

// Agg is the AGG function of Section 3.4: it returns the optimal
// labels of the set — those not dominated by any other member — with
// duplicates removed. The result is sorted for determinism.
func Agg(ks []Key) []Key {
	return AggStar(ks, 1)
}

// AggStar is the AGG* generalization of Section 4.4: labels whose
// connectors are dominated are discarded as in Agg, but among the
// survivors all labels whose semantic length is within the e lowest
// distinct semantic lengths are kept (e >= 1; e == 1 coincides with
// Agg). The result is deduplicated and sorted.
func AggStar(ks []Key, e int) []Key {
	return AggStarUnder(connector.Better, ks, e)
}

// AggStarUnder is AggStar with an alternative connector order as the
// primary criterion.
func AggStarUnder(ord Order, ks []Key, e int) []Key {
	if e < 1 {
		e = 1
	}
	uniq := dedup(ks)
	// Primary reduction: drop any label whose connector is worse than
	// some other label's connector.
	survivors := uniq[:0:0]
	for _, k := range uniq {
		dominated := false
		for _, o := range uniq {
			if ord(o.Conn, k.Conn) {
				dominated = true
				break
			}
		}
		if !dominated {
			survivors = append(survivors, k)
		}
	}
	if len(survivors) == 0 {
		return nil
	}
	// Secondary reduction: keep the e lowest distinct semantic lengths.
	lens := make([]int, 0, len(survivors))
	seen := make(map[int]bool)
	for _, k := range survivors {
		if !seen[k.SemLen] {
			seen[k.SemLen] = true
			lens = append(lens, k.SemLen)
		}
	}
	sort.Ints(lens)
	if len(lens) > e {
		lens = lens[:e]
	}
	cutoff := lens[len(lens)-1]
	out := survivors[:0:0]
	for _, k := range survivors {
		if k.SemLen <= cutoff {
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

// In reports whether k survives AggStar({k} ∪ ks, e), the membership
// test used in lines (9) and (10) of Algorithm 2.
func In(k Key, ks []Key, e int) bool {
	for _, r := range AggStar(append([]Key{k}, ks...), e) {
		if r == k {
			return true
		}
	}
	return false
}

func dedup(ks []Key) []Key {
	out := make([]Key, 0, len(ks))
	seen := make(map[Key]bool, len(ks))
	for _, k := range ks {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func sortKeys(ks []Key) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].SemLen != ks[j].SemLen {
			return ks[i].SemLen < ks[j].SemLen
		}
		return ks[i].Conn.String() < ks[j].Conn.String()
	})
}

// Equal reports whether two key slices contain the same set of keys,
// ignoring order and duplicates.
func Equal(a, b []Key) bool {
	as, bs := dedup(a), dedup(b)
	if len(as) != len(bs) {
		return false
	}
	set := make(map[Key]bool, len(as))
	for _, k := range as {
		set[k] = true
	}
	for _, k := range bs {
		if !set[k] {
			return false
		}
	}
	return true
}
