package connector

import "testing"

// TestStrictPartialOrder verifies that ≺ is irreflexive, asymmetric,
// and transitive over all of Σ.
func TestStrictPartialOrder(t *testing.T) {
	cs := All()
	for _, a := range cs {
		if Better(a, a) {
			t.Errorf("≺ not irreflexive at %v", a)
		}
		for _, b := range cs {
			if Better(a, b) && Better(b, a) {
				t.Errorf("≺ not asymmetric at (%v, %v)", a, b)
			}
			for _, c := range cs {
				if Better(a, b) && Better(b, c) && !Better(a, c) {
					t.Errorf("≺ not transitive at (%v, %v, %v)", a, b, c)
				}
			}
		}
	}
}

// TestStatedIncomparabilities verifies the three incomparability rules
// stated under Figure 3: every connector is incomparable to itself, to
// its inverse, and to its own Possibly version.
func TestStatedIncomparabilities(t *testing.T) {
	for _, c := range All() {
		if Comparable(c, c) {
			t.Errorf("%v comparable to itself", c)
		}
		if Comparable(c, c.Inverse()) {
			t.Errorf("%v comparable to its inverse %v", c, c.Inverse())
		}
		p := Connector{Kind: c.Kind, Possibly: true}
		if p.Valid() && Comparable(c, p) {
			t.Errorf("%v comparable to its Possibly version %v", c, p)
		}
	}
}

// TestOrderShape verifies the tier structure reconstructed from the
// paper's constraints: taxonomic > part-whole > association > sharing
// > indirect association.
func TestOrderShape(t *testing.T) {
	chains := [][]Connector{
		{CIsa, CHasPart, CAssoc, CSharesSub, CIndirect},
		{CMayBe, CIsPartOf, CAssoc, CSharesSuper, CIndirect},
		{CIsa, CPossiblyHasPart, CPossiblyAssoc, CPossiblySharesSub, CPossiblyIndirect},
	}
	for _, chain := range chains {
		for i := 0; i < len(chain); i++ {
			for j := i + 1; j < len(chain); j++ {
				if !Better(chain[i], chain[j]) {
					t.Errorf("want %v ≺ %v", chain[i], chain[j])
				}
				if Better(chain[j], chain[i]) {
					t.Errorf("do not want %v ≺ %v", chain[j], chain[i])
				}
			}
		}
	}
	// Isa is maximal: nothing is better than @>, so AGG's annihilator
	// property (property 5) can hold for [@>, 0].
	for _, c := range All() {
		if Better(c, CIsa) && c != CIsa {
			t.Errorf("%v ≺ @> contradicts the annihilator property", c)
		}
	}
}

// TestCautionMatchesDefinition recomputes every caution set from the
// definition in Section 4.1 with an independent brute force and
// compares the bitmasks exactly, for both the paper and the extended
// definition.
func TestCautionMatchesDefinition(t *testing.T) {
	for _, c1 := range All() {
		var want, wantExt Set
		for _, c2 := range All() {
			if !Better(c2, c1) {
				continue
			}
			for _, c3 := range All() {
				d1, d2 := Con(c1, c3), Con(c2, c3)
				if !Comparable(d1, d2) {
					want.Add(c2)
				}
				if !Better(d2, d1) {
					wantExt.Add(c2)
				}
			}
		}
		if got := Caution(c1); got != want {
			t.Errorf("Caution(%v) = %v (%#04x), want %v (%#04x)", c1, got, uint16(got), want, uint16(want))
		}
		if got := CautionExtended(c1); got != wantExt {
			t.Errorf("CautionExtended(%v) = %v (%#04x), want %v (%#04x)", c1, got, uint16(got), wantExt, uint16(wantExt))
		}
	}
}

// TestCautionExamples pins known memberships: extending a plain
// structural path and a May-Be path can diverge into incomparable
// plain/Possibly labels, so <@ must sit in the caution sets of the
// structural connectors; and nothing can be in the caution set of the
// maximal connector @>.
func TestCautionExamples(t *testing.T) {
	if Caution(CIsa) != 0 {
		t.Errorf("Caution(@>) = %v, want empty", Caution(CIsa))
	}
	if !Caution(CHasPart).Has(CMayBe) {
		// Witness: Con($>, $>) = $> and Con(<@, $>) = $>* are
		// incomparable, yet <@ ≺ $>.
		t.Errorf("Caution($>) = %v, want it to contain <@", Caution(CHasPart))
	}
	if !Caution(CPossiblyHasPart).Has(CIsa) {
		// Witness: Con($>*, $>) = $>* and Con(@>, $>) = $> are
		// incomparable, yet @> ≺ $>*.
		t.Errorf("Caution($>*) = %v, want it to contain @>", Caution(CPossiblyHasPart))
	}
}

// TestDistributivityFails demonstrates that property 6 of the
// path-algebra formalism does not hold for this algebra — the fact
// that motivates caution sets. It also checks Distributive agrees with
// the caution sets on which pairs are safe.
func TestDistributivityFails(t *testing.T) {
	found := false
	for _, a := range All() {
		for _, b := range All() {
			if !Distributive(a, b) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("expected at least one non-distributive connector pair")
	}
	// Known witness from the caution-set example: AGG({$>, <@}) = {<@}
	// but extending both by $> yields incomparable {$>, $>*}.
	if Distributive(CHasPart, CMayBe) {
		t.Error("($>, <@) should be non-distributive")
	}
	// A strictly incomparable divergence witness (distinct equal-rank
	// results) forces both caution membership and non-distributivity.
	for _, a := range All() {
		for _, b := range All() {
			if !Better(b, a) {
				continue
			}
			strict := false
			for _, c := range All() {
				d1, d2 := Con(a, c), Con(b, c)
				if d1 != d2 && !Comparable(d1, d2) {
					strict = true
					break
				}
			}
			if strict && Distributive(a, b) {
				t.Errorf("(%v, %v) has an incomparable divergence witness but Distributive is true", a, b)
			}
			if strict && !Caution(a).Has(b) {
				t.Errorf("Caution(%v) should contain %v", a, b)
			}
		}
	}
}

// TestCautionExtended verifies that the extended caution sets contain
// the paper-definition caution sets plus the reversal witnesses that
// our reconstructed ≺ admits.
func TestCautionExtended(t *testing.T) {
	for _, c := range All() {
		ext := CautionExtended(c)
		for _, b := range Caution(c).Slice() {
			if !ext.Has(b) {
				t.Errorf("CautionExtended(%v) missing paper-caution member %v", c, b)
			}
		}
	}
	// Reversal witness from order.go: . ≺ .SB, but Con(.SB, <$) = .SB
	// beats Con(., <$) = .. — the extended set must contain the pair.
	// (The literal paper definition also catches it here, via the
	// equal-result witness Con(.SB, $>) = Con(., $>) = "..", because
	// equal connectors are mutually incomparable.)
	if !CautionExtended(CSharesSub).Has(CAssoc) {
		t.Errorf("CautionExtended(.SB) = %v, want it to contain .", CautionExtended(CSharesSub))
	}
	if !Caution(CSharesSub).Has(CAssoc) {
		t.Errorf("Caution(.SB) = %v, want it to contain . via the equal-result witness", Caution(CSharesSub))
	}
	if n := CautionExtended(CIsa).Len(); n != 0 {
		t.Errorf("CautionExtended(@>) has %d members, want 0", n)
	}
}

// TestSetOps exercises the Set helper type.
func TestSetOps(t *testing.T) {
	s := NewSet(CIsa, CAssoc)
	if !s.Has(CIsa) || !s.Has(CAssoc) || s.Has(CHasPart) {
		t.Errorf("membership wrong in %v", s)
	}
	s.Add(CHasPart)
	if !s.Has(CHasPart) || s.Len() != 3 {
		t.Error("Add failed")
	}
	if !s.Intersects(NewSet(CHasPart)) {
		t.Error("Intersects false negative")
	}
	if s.Intersects(NewSet(CIndirect)) {
		t.Error("Intersects false positive")
	}
	if NewSet().Intersects(s) || s.Intersects(NewSet()) {
		t.Error("empty set should intersect nothing")
	}
	if got := NewSet(CAssoc, CIsa).String(); got != "{., @>}" {
		t.Errorf("Set.String() = %q, want %q", got, "{., @>}")
	}
	// Every member of Σ has its own bit, and a plain connector is
	// distinct from its Possibly version.
	var u Set
	for _, c := range All() {
		if u.Has(c) {
			t.Errorf("%v shares a bit with an earlier connector", c)
		}
		u.Add(c)
	}
	if u.Len() != 14 || len(u.Slice()) != 14 {
		t.Errorf("the set of all of Σ has %d members, want 14", u.Len())
	}
	if NewSet(CAssoc).Has(CPossiblyAssoc) {
		t.Error(". and .* share a bit")
	}
	if (Set(0xffff)).Has(Connector{Kind: numKinds}) {
		t.Error("an invalid connector is a member of the full mask")
	}
}

// TestRank checks the published tier values used by ablation tooling.
func TestRank(t *testing.T) {
	want := map[Connector]int{
		CIsa: 0, CMayBe: 0,
		CHasPart: 1, CIsPartOf: 1, CPossiblyHasPart: 1, CPossiblyIsPartOf: 1,
		CAssoc: 2, CPossiblyAssoc: 2,
		CSharesSub: 3, CSharesSuper: 3, CPossiblySharesSub: 3, CPossiblySharesSuper: 3,
		CIndirect: 4, CPossiblyIndirect: 4,
	}
	for c, r := range want {
		if got := c.Rank(); got != r {
			t.Errorf("Rank(%v) = %d, want %d", c, got, r)
		}
	}
}
