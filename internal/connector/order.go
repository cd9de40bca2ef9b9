package connector

// This file implements the better-than partial order ≺ of the paper
// (Figure 3, Section 3.4.1) and the caution sets of Section 4.1.
//
// The printed figure is an image we cannot read pixel-perfectly, so ≺
// is reconstructed from the constraints the text states explicitly:
//
//   - [@>, 0] must act as an annihilator for AGG (property 5), so the
//     taxonomic connectors sit at the top;
//   - every connector is incomparable to itself, to its inverse, and
//     to its own Possibly version;
//   - strength follows the cognitive-science literature the paper
//     cites: taxonomic (Isa/May-Be) > part-whole > direct association
//     > sharing > indirect association.
//
// We realize this with a strength rank on base kinds, ignoring the
// Possibly flag: c1 ≺ c2 iff rank(c1) < rank(c2). Inverse pairs share
// a rank and plain/Possibly pairs share a rank, so both are
// automatically incomparable; irreflexivity and transitivity are
// immediate. Tests verify all stated constraints and that ≺ is a
// strict partial order.

// rank maps each base kind to its strength tier; smaller is stronger
// (more preferable).
var rank = [numKinds]int{
	Isa:         0,
	MayBe:       0,
	HasPart:     1,
	IsPartOf:    1,
	Assoc:       2,
	SharesSub:   3,
	SharesSuper: 3,
	Indirect:    4,
}

// Rank returns the strength tier of the connector (0 strongest, 4
// weakest). Connectors in the same tier are incomparable under ≺.
func (c Connector) Rank() int { return rank[c.Kind] }

// Better reports a ≺ b: connector a denotes a strictly stronger, more
// cognitively plausible relationship than b.
func Better(a, b Connector) bool { return rank[a.Kind] < rank[b.Kind] }

// Comparable reports whether a and b are related by ≺ in either
// direction. Incomparable connectors are ranked by semantic length
// instead (Section 3.4.2).
func Comparable(a, b Connector) bool { return rank[a.Kind] != rank[b.Kind] }

// cautionSets[c.index()] is the caution set of connector c and
// cautionExtSets[c.index()] its extended caution set (see Caution and
// CautionExtended), both computed once at package initialization.
var (
	cautionSets    = buildCaution(func(d1, d2 Connector) bool { return !Comparable(d1, d2) })
	cautionExtSets = buildCaution(func(d1, d2 Connector) bool { return !Better(d2, d1) })
)

// buildCaution computes by brute force over Σ, for every c1, the set of
// connectors c2 ≺ c1 for which some extension c3 makes
// diverges(Con(c1, c3), Con(c2, c3)) hold — i.e. under which pruning c1
// in favor of c2 could lose an optimal path.
func buildCaution(diverges func(d1, d2 Connector) bool) (sets [16]Set) {
	for _, c1 := range all {
		for _, c2 := range all {
			if !Better(c2, c1) {
				continue
			}
			for _, c3 := range all {
				if diverges(Con(c1, c3), Con(c2, c3)) {
					sets[c1.index()].Add(c2)
					break
				}
			}
		}
	}
	return sets
}

// Caution returns the caution set of c (Section 4.1): the connectors
// c2 ≺ c such that for some extension c3, Con(c, c3) and Con(c2, c3)
// are incomparable. When the search at a node holds only labels whose
// connectors are better than the incoming label's, the incoming path
// may still be extended into an optimal completion exactly when one of
// those better connectors lies in the incoming connector's caution
// set; Algorithm 2 therefore re-explores in that case. The lookup is
// one table index; c must be a member of Σ.
func Caution(c Connector) Set { return cautionSets[c.index()] }

// CautionExtended returns a superset of Caution(c): the connectors
// c2 ≺ c such that under some extension c3, c2's composition fails to
// remain strictly better than c's — whether because the two become
// incomparable (the paper's caution condition), equal, or reversed.
// The paper's condition is sufficient for its own (unpublished) ≺ of
// Figure 3; under our reconstructed ≺ a reversal witness exists
// (. ≺ .SB, yet Con(.SB,<$) = .SB beats Con(.,<$) = ..), so exact
// search modes use this extended set. Like Caution, it is one table
// index; c must be a member of Σ.
func CautionExtended(c Connector) Set { return cautionExtSets[c.index()] }

// Distributive reports whether the pair (c1, c2) distributes over
// every extension: AGG({Con(c1,c3), Con(c2,c3)}) is never a strict
// superset of Con(AGG({c1,c2}), c3). The paper's property 6 fails
// precisely because Distributive is false for some pairs; the
// completion algorithm compensates with caution sets.
func Distributive(c1, c2 Connector) bool {
	for _, c3 := range all {
		d1, d2 := Con(c1, c3), Con(c2, c3)
		switch {
		case Better(c1, c2):
			// AGG would keep only c1; losing c2's extension is safe
			// only if it never beats or escapes c1's extension.
			if !Better(d1, d2) && d1 != d2 {
				return false
			}
		case Better(c2, c1):
			if !Better(d2, d1) && d1 != d2 {
				return false
			}
		}
	}
	return true
}
