package label

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathcomplete/internal/connector"
)

func edge(sym string) Label { return MustEdge(connector.MustParse(sym)) }

func path(syms ...string) Label {
	l := Identity()
	for _, s := range syms {
		l = Con(l, edge(s))
	}
	return l
}

// TestIdentity checks Θ = [@>, 0].
func TestIdentity(t *testing.T) {
	id := Identity()
	if id.Conn() != connector.CIsa {
		t.Errorf("identity connector = %v, want @>", id.Conn())
	}
	if id.SemLen() != 0 {
		t.Errorf("identity semantic length = %d, want 0", id.SemLen())
	}
	if got := id.String(); got != "[@>, 0]" {
		t.Errorf("identity String() = %q", got)
	}
}

// TestEdgeRejectsSecondary checks that only primary connectors label
// edges.
func TestEdgeRejectsSecondary(t *testing.T) {
	for _, c := range connector.All() {
		_, err := Edge(c)
		if c.Primary() && err != nil {
			t.Errorf("Edge(%v): unexpected error %v", c, err)
		}
		if !c.Primary() && err == nil {
			t.Errorf("Edge(%v): expected error for non-primary connector", c)
		}
	}
}

// TestSingleEdgeSemLen checks consistency with Section 3.2: a single
// Isa or May-Be edge has semantic length 0, all others 1.
func TestSingleEdgeSemLen(t *testing.T) {
	for _, c := range connector.Primaries() {
		want := c.EdgeSemLen()
		if got := MustEdge(c).SemLen(); got != want {
			t.Errorf("SemLen(edge %v) = %d, want %d", c, got, want)
		}
	}
}

// TestPaperSemLenExamples checks the two worked examples of Section
// 3.3.2.
func TestPaperSemLenExamples(t *testing.T) {
	// teacher.teach.student.department$>professor has semantic length 4.
	if got := path(".", ".", ".", "$>").SemLen(); got != 4 {
		t.Errorf("semlen(. . . $>) = %d, want 4", got)
	}
	// stuff@>employee<@teacher<@instructor<@teaching-asst@>grad@>student
	// has semantic length 2.
	if got := path("@>", "<@", "<@", "<@", "@>", "@>").SemLen(); got != 2 {
		t.Errorf("semlen(@> <@ <@ <@ @> @>) = %d, want 2", got)
	}
}

// TestSection2Examples checks the labels of the completions discussed
// for ta ~ name in Section 2.2.2.
func TestSection2Examples(t *testing.T) {
	cases := []struct {
		name   string
		l      Label
		conn   string
		semlen int
	}{
		// ta@>grad@>student@>person.name — an intended completion.
		{"isa chain + name", path("@>", "@>", "@>", "."), ".", 1},
		// ta@>instructor@>teacher@>employee@>person.name — the other.
		{"longer isa chain + name", path("@>", "@>", "@>", "@>", "."), ".", 1},
		// ta@>grad@>student.take.student@>person.name — implausible.
		{"take.student.name", path("@>", "@>", ".", ".", "@>", "."), "..", 3},
		// ta@>grad@>student.take.name — names of courses taken by TAs.
		{"take.name", path("@>", "@>", ".", "."), "..", 2},
		// ta@>grad@>student.department.name.
		{"department.name", path("@>", "@>", ".", "."), "..", 2},
	}
	for _, tc := range cases {
		if got := tc.l.Conn(); got != connector.MustParse(tc.conn) {
			t.Errorf("%s: connector = %v, want %s", tc.name, got, tc.conn)
		}
		if got := tc.l.SemLen(); got != tc.semlen {
			t.Errorf("%s: semlen = %d, want %d", tc.name, got, tc.semlen)
		}
	}
	// The intended completions must dominate the implausible ones.
	good := path("@>", "@>", "@>", ".").Key()
	for _, bad := range []Label{
		path("@>", "@>", ".", ".", "@>", "."),
		path("@>", "@>", ".", "."),
	} {
		if !Dominates(good, bad.Key()) {
			t.Errorf("intended completion %v should dominate %v", good, bad.Key())
		}
	}
}

// TestRunCollapse checks restructuring step 1: chains of one
// structural connector have the semantic length of a single edge.
func TestRunCollapse(t *testing.T) {
	if got := path("$>", "$>", "$>", "$>").SemLen(); got != 1 {
		t.Errorf("semlen($> chain) = %d, want 1", got)
	}
	if got := path("<$", "<$").SemLen(); got != 1 {
		t.Errorf("semlen(<$ chain) = %d, want 1", got)
	}
	// Association edges do NOT collapse.
	if got := path(".", ".", ".").SemLen(); got != 3 {
		t.Errorf("semlen(. . .) = %d, want 3", got)
	}
	// Interrupted runs count separately.
	if got := path("$>", ".", "$>").SemLen(); got != 3 {
		t.Errorf("semlen($> . $>) = %d, want 3", got)
	}
}

// TestIsaSeries checks restructuring step 2 on alternating @>/<@
// series.
func TestIsaSeries(t *testing.T) {
	cases := []struct {
		syms []string
		want int
	}{
		{[]string{"@>"}, 0},
		{[]string{"<@"}, 0},
		{[]string{"@>", "<@"}, 1},
		{[]string{"@>", "<@", "@>"}, 2},
		{[]string{"@>", "@>", "<@", "<@", "@>"}, 2},
		{[]string{".", "@>", "<@", "."}, 3},
		{[]string{"@>", ".", "<@"}, 1}, // two separate series of length 1
		{[]string{"@>", "$>", "<@"}, 1},
	}
	for _, tc := range cases {
		if got := path(tc.syms...).SemLen(); got != tc.want {
			t.Errorf("semlen(%v) = %d, want %d", tc.syms, got, tc.want)
		}
	}
}

// randLabel builds a label from a bounded random edge sequence.
func randLabel(r *rand.Rand) Label {
	prims := connector.Primaries()
	n := r.Intn(8)
	l := Identity()
	for i := 0; i < n; i++ {
		l = Con(l, MustEdge(prims[r.Intn(len(prims))]))
	}
	return l
}

// TestConAssociativeQuick property-tests associativity of Con over
// random labels.
func TestConAssociativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randLabel(r), randLabel(r), randLabel(r)
		l, rr := Con(Con(a, b), c), Con(a, Con(b, c))
		return l.Key() == rr.Key() && l.SemLen() == rr.SemLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConIdentityQuick property-tests the two-sided identity.
func TestConIdentityQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randLabel(r)
		return Con(Identity(), a).Key() == a.Key() && Con(a, Identity()).Key() == a.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConIncrementalMatchesScratch property-tests that composing a
// path label edge by edge equals building it in arbitrary splits.
func TestConIncrementalMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prims := connector.Primaries()
		n := 1 + r.Intn(10)
		cs := make([]connector.Connector, n)
		for i := range cs {
			cs[i] = prims[r.Intn(len(prims))]
		}
		whole := MustPath(cs...)
		cut := r.Intn(n + 1)
		split := Con(MustPath(cs[:cut]...), MustPath(cs[cut:]...))
		return whole.Key() == split.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMonotonicity verifies property 7 of Section 3.5: extending a
// path never improves its label, i.e. Con(L1, L2) never dominates L1.
func TestMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l1, l2 := randLabel(r), randLabel(r)
		ext := Con(l1, l2)
		return !Dominates(ext.Key(), l1.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSemLenMonotone verifies that appending edges never decreases
// semantic length — the property that justifies pruning against
// best[T].
func TestSemLenMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randLabel(r)
		prims := connector.Primaries()
		ext := Con(l, MustEdge(prims[r.Intn(len(prims))]))
		if ext.SemLen() < l.SemLen() {
			return false
		}
		// Rank of the composed connector never decreases either.
		return ext.Conn().Rank() >= l.Conn().Rank()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSemLenCatchUpAtMostOne verifies the single-junction slack bound
// used by the exact search mode: if two labels share a suffix, their
// semantic-length gap changes by at most one.
func TestSemLenCatchUpAtMostOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, suffix := randLabel(r), randLabel(r), randLabel(r)
		gapBefore := a.SemLen() - b.SemLen()
		gapAfter := Con(a, suffix).SemLen() - Con(b, suffix).SemLen()
		d := gapAfter - gapBefore
		return d >= -1 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestDominates checks the primary/secondary ordering of Section 3.4.
func TestDominates(t *testing.T) {
	k := func(c string, f int) Key { return Key{Conn: connector.MustParse(c), SemLen: f} }
	cases := []struct {
		a, b Key
		want bool
	}{
		{k("@>", 0), k(".", 1), true},    // better connector wins
		{k("@>", 9), k(".", 1), true},    // ... regardless of semantic length
		{k(".", 1), k("@>", 9), false},   // never the other way
		{k(".", 1), k(".", 2), true},     // same connector: shorter wins
		{k(".", 2), k(".", 1), false},    //
		{k(".", 1), k(".", 1), false},    // equal keys do not dominate
		{k("$>", 2), k("<$", 1), false},  // inverse connectors: semlen decides
		{k("<$", 1), k("$>", 2), true},   //
		{k("$>", 1), k("$>*", 1), false}, // plain vs Possibly incomparable, equal semlen
		{k("$>", 1), k("$>*", 2), true},  // ... but shorter semlen wins
	}
	for _, tc := range cases {
		if got := Dominates(tc.a, tc.b); got != tc.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestAgg checks the basic AGG reductions.
func TestAgg(t *testing.T) {
	k := func(c string, f int) Key { return Key{Conn: connector.MustParse(c), SemLen: f} }
	cases := []struct {
		name string
		in   []Key
		want []Key
	}{
		{"empty", nil, nil},
		{"singleton fixpoint", []Key{k(".", 3)}, []Key{k(".", 3)}},
		{"dedup", []Key{k(".", 3), k(".", 3)}, []Key{k(".", 3)}},
		{"connector dominance", []Key{k("@>", 5), k(".", 1)}, []Key{k("@>", 5)}},
		{"semlen among incomparable", []Key{k("$>", 2), k("<$", 1)}, []Key{k("<$", 1)}},
		{"incomparable tie kept", []Key{k("$>", 1), k("<$", 1)}, []Key{k("$>", 1), k("<$", 1)}},
		{"chain", []Key{k("..", 1), k(".", 2), k("$>", 3)}, []Key{k("$>", 3)}},
		{"annihilator", []Key{k("@>", 0), k(".", 1), k(".SB", 0)}, []Key{k("@>", 0)}},
	}
	for _, tc := range cases {
		if got := Agg(tc.in); !Equal(got, tc.want) {
			t.Errorf("%s: Agg(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestAggSingletonFixpoint verifies property 3 over random labels.
func TestAggSingletonFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := randLabel(r).Key()
		return Equal(Agg([]Key{k}), []Key{k})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAggPairwiseAssociative verifies property 2: reducing a set
// pairwise in any grouping gives the same result as reducing it at
// once.
func TestAggPairwiseAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ks := make([]Key, 2+r.Intn(6))
		for i := range ks {
			ks[i] = randLabel(r).Key()
		}
		cut := 1 + r.Intn(len(ks)-1)
		// AGG(AGG(L1) ∪ L2) must equal AGG(L1 ∪ L2).
		inner := Agg(ks[:cut])
		return Equal(Agg(append(inner, ks[cut:]...)), Agg(ks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestAggStar checks the E-generalization of Section 4.4.
func TestAggStar(t *testing.T) {
	k := func(c string, f int) Key { return Key{Conn: connector.MustParse(c), SemLen: f} }
	in := []Key{k("$>", 1), k("<$", 2), k("$>", 3), k("$>*", 2), k(".", 1)}
	// "." is dominated by both $> and <$ regardless of semlen.
	if got := AggStar(in, 1); !Equal(got, []Key{k("$>", 1)}) {
		t.Errorf("AggStar(E=1) = %v", got)
	}
	if got := AggStar(in, 2); !Equal(got, []Key{k("$>", 1), k("<$", 2), k("$>*", 2)}) {
		t.Errorf("AggStar(E=2) = %v", got)
	}
	if got := AggStar(in, 3); !Equal(got, []Key{k("$>", 1), k("<$", 2), k("$>*", 2), k("$>", 3)}) {
		t.Errorf("AggStar(E=3) = %v", got)
	}
	// E beyond the number of distinct lengths keeps everything surviving
	// the connector reduction.
	if got := AggStar(in, 99); len(got) != 4 {
		t.Errorf("AggStar(E=99) kept %d labels, want 4", len(got))
	}
	// E < 1 is clamped to 1.
	if got := AggStar(in, 0); !Equal(got, AggStar(in, 1)) {
		t.Errorf("AggStar(E=0) = %v, want same as E=1", got)
	}
}

// TestAggStarE1IsAgg verifies that AGG* with E=1 coincides with AGG on
// random inputs.
func TestAggStarE1IsAgg(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ks := make([]Key, r.Intn(8))
		for i := range ks {
			ks[i] = randLabel(r).Key()
		}
		return Equal(AggStar(ks, 1), Agg(ks))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestAggNoDominatedSurvivor verifies the defining property of Agg: no
// output label is dominated by any input label, and every input label
// not in the output is dominated by some output label or exceeds the
// semantic-length cut.
func TestAggNoDominatedSurvivor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ks := make([]Key, 1+r.Intn(8))
		for i := range ks {
			ks[i] = randLabel(r).Key()
		}
		out := Agg(ks)
		for _, o := range out {
			for _, k := range ks {
				if Dominates(k, o) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestIn checks the membership helper used by Algorithm 2's pruning
// conditions.
func TestIn(t *testing.T) {
	k := func(c string, f int) Key { return Key{Conn: connector.MustParse(c), SemLen: f} }
	best := []Key{k("$>", 1)}
	if In(k(".", 1), best, 1) {
		t.Error("dominated label should not be In at E=1")
	}
	if !In(k("<$", 1), best, 1) {
		t.Error("incomparable equal-length label should be In")
	}
	if In(k("<$", 2), best, 1) {
		t.Error("incomparable longer label should not be In at E=1")
	}
	if !In(k("<$", 2), best, 2) {
		t.Error("incomparable longer label should be In at E=2")
	}
	if !In(k("$>", 1), best, 1) {
		t.Error("a label already in the set must be In (Section 4.2)")
	}
}
