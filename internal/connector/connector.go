// Package connector implements the connector algebra of Ioannidis &
// Lashkari, "Incomplete Path Expressions and their Disambiguation"
// (SIGMOD 1994), Section 3.3.
//
// A connector denotes the kind of relationship that holds between the
// two end classes of a path in a schema graph. Five primary connectors
// appear on schema edges:
//
//	@>  Isa
//	<@  May-Be
//	$>  Has-Part
//	<$  Is-Part-Of
//	.   Is-Associated-With
//
// Composing primary connectors along a path yields secondary
// connectors describing indirect relationships:
//
//	.SB Shares-SubParts-With
//	.SP Shares-SuperParts-With
//	..  Is-Indirectly-Associated-With
//
// Every connector except Isa and May-Be additionally has a Possibly
// version (written with a trailing *, e.g. $>*), indicating that the
// relationship may or may not hold. The set Σ of all fourteen
// connectors is closed under the composition function Con (the CON_c
// of the paper, Table 1) and carries the partial order "better-than"
// (the ≺ of Figure 3) implemented by Better.
package connector

import (
	"fmt"
	"math/bits"
	"sort"
)

// Kind identifies the base kind of a relationship, ignoring the
// Possibly qualifier.
type Kind uint8

// The eight base relationship kinds. The first five are primary (they
// may label schema edges); the last three are secondary (they arise
// only from composition).
const (
	Isa         Kind = iota // @>  subclass to superclass
	MayBe                   // <@  superclass to subclass (inverse of Isa)
	HasPart                 // $>  superpart to subpart
	IsPartOf                // <$  subpart to superpart (inverse of Has-Part)
	Assoc                   // .   mutual, non-structural association
	SharesSub               // .SB two classes containing common objects
	SharesSuper             // .SP two classes contained in common objects
	Indirect                // ..  looser, indirect association
	numKinds
)

var kindNames = [numKinds]string{"Isa", "May-Be", "Has-Part", "Is-Part-Of",
	"Is-Associated-With", "Shares-SubParts-With", "Shares-SuperParts-With",
	"Is-Indirectly-Associated-With"}

var kindSymbols = [numKinds]string{"@>", "<@", "$>", "<$", ".", ".SB", ".SP", ".."}

// String returns the long English name of the kind, e.g. "Has-Part".
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Valid reports whether k is one of the eight defined kinds.
func (k Kind) Valid() bool { return k < numKinds }

// Primary reports whether the kind may label a schema edge.
func (k Kind) Primary() bool { return k <= Assoc }

// Connector is a relationship kind, optionally qualified as Possibly.
// The zero value is the Isa connector @>, which is also the identity
// of connector composition.
type Connector struct {
	Kind     Kind
	Possibly bool
}

// Predefined connectors covering all of Σ.
var (
	CIsa         = Connector{Kind: Isa}
	CMayBe       = Connector{Kind: MayBe}
	CHasPart     = Connector{Kind: HasPart}
	CIsPartOf    = Connector{Kind: IsPartOf}
	CAssoc       = Connector{Kind: Assoc}
	CSharesSub   = Connector{Kind: SharesSub}
	CSharesSuper = Connector{Kind: SharesSuper}
	CIndirect    = Connector{Kind: Indirect}

	CPossiblyHasPart     = Connector{Kind: HasPart, Possibly: true}
	CPossiblyIsPartOf    = Connector{Kind: IsPartOf, Possibly: true}
	CPossiblyAssoc       = Connector{Kind: Assoc, Possibly: true}
	CPossiblySharesSub   = Connector{Kind: SharesSub, Possibly: true}
	CPossiblySharesSuper = Connector{Kind: SharesSuper, Possibly: true}
	CPossiblyIndirect    = Connector{Kind: Indirect, Possibly: true}
)

// Valid reports whether c is a member of Σ. Isa and May-Be have no
// Possibly versions, so {Isa,Possibly} and {MayBe,Possibly} are
// invalid.
func (c Connector) Valid() bool {
	if !c.Kind.Valid() {
		return false
	}
	if c.Possibly && (c.Kind == Isa || c.Kind == MayBe) {
		return false
	}
	return true
}

// Primary reports whether c may label a schema edge, i.e. whether it
// is one of @>, <@, $>, <$, or the plain association dot.
func (c Connector) Primary() bool { return c.Kind.Primary() && !c.Possibly }

// String returns the symbolic form of the connector, e.g. "$>*" for
// Possibly-Has-Part.
func (c Connector) String() string {
	if !c.Kind.Valid() {
		return fmt.Sprintf("Connector(%d)", uint8(c.Kind))
	}
	s := kindSymbols[c.Kind]
	if c.Possibly {
		s += "*"
	}
	return s
}

// StringLen returns len(c.String()) without building the string —
// byte-accounting loops over millions of path steps call this.
func (c Connector) StringLen() int {
	if !c.Kind.Valid() {
		return len(c.String())
	}
	n := len(kindSymbols[c.Kind])
	if c.Possibly {
		n++
	}
	return n
}

// Name returns the long English name, e.g. "Possibly-Has-Part".
func (c Connector) Name() string {
	if c.Possibly {
		return "Possibly-" + c.Kind.String()
	}
	return c.Kind.String()
}

// Parse converts a symbolic connector (e.g. "<$", ".SB*") back into a
// Connector. It is the inverse of String for every member of Σ.
func Parse(s string) (Connector, error) {
	possibly := false
	if n := len(s); n > 0 && s[n-1] == '*' {
		possibly = true
		s = s[:n-1]
	}
	for k := Kind(0); k < numKinds; k++ {
		if kindSymbols[k] == s {
			c := Connector{Kind: k, Possibly: possibly}
			if !c.Valid() {
				return Connector{}, fmt.Errorf("connector: %s connector has no Possibly version", k)
			}
			return c, nil
		}
	}
	return Connector{}, fmt.Errorf("connector: unknown connector symbol %q", s)
}

// MustParse is Parse, panicking on error. Intended for compile-time
// constant connector literals in tests and table construction.
func MustParse(s string) Connector {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

var inverseKinds = [numKinds]Kind{
	Isa:         MayBe,
	MayBe:       Isa,
	HasPart:     IsPartOf,
	IsPartOf:    HasPart,
	Assoc:       Assoc,
	SharesSub:   SharesSub,
	SharesSuper: SharesSuper,
	Indirect:    Indirect,
}

// Inverse returns the connector of the inverse relationship: Isa and
// May-Be are mutual inverses, as are Has-Part and Is-Part-Of; the
// association connectors are their own inverses. The Possibly
// qualifier is preserved.
func (c Connector) Inverse() Connector {
	return Connector{Kind: inverseKinds[c.Kind], Possibly: c.Possibly}
}

// EdgeSemLen returns the semantic length contributed by a single
// schema edge of this connector: 0 for Isa and May-Be, 1 for all other
// kinds (Section 3.2 of the paper).
func (c Connector) EdgeSemLen() int {
	if c.Kind == Isa || c.Kind == MayBe {
		return 0
	}
	return 1
}

// all is the canonical enumeration of Σ in a stable order.
var all = buildAll()

func buildAll() []Connector {
	var cs []Connector
	for k := Kind(0); k < numKinds; k++ {
		cs = append(cs, Connector{Kind: k})
	}
	for k := Kind(0); k < numKinds; k++ {
		c := Connector{Kind: k, Possibly: true}
		if c.Valid() {
			cs = append(cs, c)
		}
	}
	return cs
}

// All returns every member of Σ (the fourteen valid connectors) in a
// stable order: the eight plain connectors followed by the six
// Possibly connectors. The returned slice is fresh; callers may
// modify it.
func All() []Connector {
	out := make([]Connector, len(all))
	copy(out, all)
	return out
}

// Primaries returns the five primary connectors that may label schema
// edges, in declaration order.
func Primaries() []Connector {
	return []Connector{CIsa, CMayBe, CHasPart, CIsPartOf, CAssoc}
}

// Set is a set of connectors, used for caution sets: a bitmask with
// one bit per (Kind, Possibly) encoding — 8 kinds × 2 fit 16 bits, the
// two encodings outside Σ ({Isa,Possibly}, {MayBe,Possibly}) simply
// never being set. Membership and intersection are single bit tests,
// which is what lets the search kernel consult a caution set on every
// failed best[u] test without a map lookup.
type Set uint16

// index returns c's (Kind, Possibly) encoding: its bit position in a
// Set and its slot in the caution-set tables.
func (c Connector) index() int {
	i := int(c.Kind) << 1
	if c.Possibly {
		i |= 1
	}
	return i
}

// bit returns c's member bit; connectors with an invalid kind shift
// past the 16 bits and so are never members.
func (c Connector) bit() Set { return 1 << c.index() }

// NewSet returns a Set containing the given connectors.
func NewSet(cs ...Connector) Set {
	var s Set
	for _, c := range cs {
		s.Add(c)
	}
	return s
}

// Has reports whether c is in the set.
func (s Set) Has(c Connector) bool { return s&c.bit() != 0 }

// Add inserts c into the set.
func (s *Set) Add(c Connector) { *s |= c.bit() }

// Intersects reports whether s and t share any connector.
func (s Set) Intersects(t Set) bool { return s&t != 0 }

// Len returns the number of connectors in the set.
func (s Set) Len() int { return bits.OnesCount16(uint16(s)) }

// Slice returns the members of the set sorted by String form, for
// deterministic display.
func (s Set) Slice() []Connector {
	out := make([]Connector, 0, s.Len())
	for _, c := range all {
		if s.Has(c) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// String renders the set in sorted, braced form, e.g. "{.SB, <$}".
func (s Set) String() string {
	cs := s.Slice()
	out := "{"
	for i, c := range cs {
		if i > 0 {
			out += ", "
		}
		out += c.String()
	}
	return out + "}"
}
