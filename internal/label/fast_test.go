package label

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pathcomplete/internal/connector"
)

// randKey draws a key with any of the fourteen connectors and a
// semantic length below maxLen.
func randKey(r *rand.Rand, maxLen int) Key {
	cs := connector.All()
	return Key{Conn: cs[r.Intn(len(cs))], SemLen: r.Intn(maxLen)}
}

// randKeys draws n keys. Most draws stay in the regime best[] sets live
// in (semantic lengths below 7); the rest spread lengths wide enough to
// fill sets at E up to 64.
func randKeys(r *rand.Rand, n int) []Key {
	maxLen := 7
	if r.Intn(4) == 0 {
		maxLen = 100
	}
	out := make([]Key, n)
	for i := range out {
		out[i] = randKey(r, maxLen)
	}
	return out
}

// randE draws an AGG* parameter: mostly the paper's small values, and
// up to the server's limit of 64.
func randE(r *rand.Rand) int {
	if r.Intn(4) == 0 {
		return 1 + r.Intn(64)
	}
	return 1 + r.Intn(5)
}

// packOf builds the Packed form of an AGG*-closed set word by word,
// independently of Insert.
func packOf(t *testing.T, closed []Key, e int) Packed {
	t.Helper()
	p := NewPacked(e)
	i := -1
	for _, k := range closed { // sorted by semantic length
		if i < 0 || p[i]>>packedLenShift != uint64(k.SemLen) {
			i++
		}
		p[i] |= packWord(k)
	}
	return p
}

// TestFitsMatchesIn property-tests the packed membership test against
// the reference In over random AGG*-closed sets.
func TestFitsMatchesIn(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		e := randE(r)
		closed := AggStar(randKeys(r, r.Intn(40)), e)
		p := packOf(t, closed, e)
		k := randKey(r, 100)
		if got, want := p.Fits(k), In(k, closed, e); got != want {
			t.Fatalf("iter %d: %v.Fits(%v) at e=%d = %v, In = %v", i, closed, k, e, got, want)
		}
		if got, want := p.Has(k), containsKey(closed, k); got != want {
			t.Fatalf("iter %d: %v.Has(%v) = %v, want %v", i, closed, k, got, want)
		}
		var conns connector.Set
		for _, c := range closed {
			conns.Add(c.Conn)
		}
		if got := p.Conns(); got != conns {
			t.Fatalf("iter %d: %v.Conns() = %v, want %v", i, closed, got, conns)
		}
		if got := p.AppendKeys(nil); !reflect.DeepEqual(got, closed) && len(closed) > 0 {
			t.Fatalf("iter %d: AppendKeys = %v, want %v", i, got, closed)
		}
		if p.Len() != len(closed) {
			t.Fatalf("iter %d: Len = %d, want %d", i, p.Len(), len(closed))
		}
	}
}

func containsKey(ks []Key, k Key) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// TestInsertMatchesAggStar property-tests the in-place fold of one key
// against the reference batch AggStar, starting from AGG*-closed sets.
func TestInsertMatchesAggStar(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		e := randE(r)
		closed := AggStar(randKeys(r, r.Intn(40)), e)
		k := randKey(r, 100)
		want := packOf(t, AggStar(append(append([]Key{}, closed...), k), e), e)
		got := packOf(t, closed, e)
		changed := got.Insert(k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: %v.Insert(%v) at e=%d = %v, want %v", i, closed, k, e, got.AppendKeys(nil), want.AppendKeys(nil))
		}
		if want := !reflect.DeepEqual(got, packOf(t, closed, e)); changed != want {
			t.Fatalf("iter %d: %v.Insert(%v) at e=%d reports changed=%v, want %v", i, closed, k, e, changed, want)
		}
	}
}

// TestInsertFoldMatchesBatch verifies the engine's key invariant:
// folding Insert from the empty set over any insertion order yields
// the same set as one batch AggStar over all keys, and so does merging
// the folds of any split of the keys. This is what makes incremental
// best[] maintenance — and the parallel search's shared and merged
// best[T] — equivalent to the definitional semantics.
func TestInsertFoldMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		e := randE(r)
		ks := randKeys(r, r.Intn(80))
		fold, left, right := NewPacked(e), NewPacked(e), NewPacked(e)
		cut := r.Intn(len(ks) + 1)
		for j, k := range ks {
			fold.Insert(k)
			if j < cut {
				left.Insert(k)
			} else {
				right.Insert(k)
			}
		}
		want := packOf(t, AggStar(ks, e), e)
		if !reflect.DeepEqual(fold, want) {
			t.Fatalf("iter %d: fold(%v, e=%d) = %v, batch = %v", i, ks, e, fold.AppendKeys(nil), want.AppendKeys(nil))
		}
		before := slices.Clone(left)
		if changed := left.Merge(right); changed != !reflect.DeepEqual(before, want) {
			t.Fatalf("iter %d: merge of the folds of %v | %v (e=%d) reports changed=%v", i, ks[:cut], ks[cut:], e, changed)
		}
		if !reflect.DeepEqual(left, want) {
			t.Fatalf("iter %d: merge of the folds of %v | %v (e=%d) = %v, batch = %v", i, ks[:cut], ks[cut:], e, left.AppendKeys(nil), want.AppendKeys(nil))
		}
	}
}

// TestBetterIsGraded pins the invariant Packed rests on: the better-than
// order compares strength ranks, so every AGG*-closed set has a single
// rank, and ranks fit the 16 bits of a packed word. If Better stops
// being graded, a closed set can mix ranks and the packing is wrong.
func TestBetterIsGraded(t *testing.T) {
	for _, a := range connector.All() {
		if a.Rank() < 0 || a.Rank() > packedMask {
			t.Errorf("rank of %v = %d does not fit a packed word", a, a.Rank())
		}
		for _, b := range connector.All() {
			if got, want := connector.Better(a, b), a.Rank() < b.Rank(); got != want {
				t.Errorf("Better(%v, %v) = %v, but ranks %d < %d is %v", a, b, got, a.Rank(), b.Rank(), want)
			}
		}
	}
}

// TestIncMatchesLabel property-tests the incremental label against the
// sequence-carrying Label over random primary-edge walks: at every
// prefix the composed connector and semantic length must agree.
func TestIncMatchesLabel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	prim := connector.Primaries()
	for i := 0; i < 20000; i++ {
		n := r.Intn(13)
		inc := IncIdentity()
		ref := Identity()
		for j := 0; j < n; j++ {
			c := prim[r.Intn(len(prim))]
			inc = inc.Extend(c)
			ref = Con(ref, MustEdge(c))
			if inc.Key() != ref.Key() {
				t.Fatalf("iter %d step %d: Inc key %v, Label key %v", i, j, inc.Key(), ref.Key())
			}
			if inc.Conn() != ref.Conn() || inc.SemLen() != ref.SemLen() {
				t.Fatalf("iter %d step %d: Inc (%v,%d), Label (%v,%d)",
					i, j, inc.Conn(), inc.SemLen(), ref.Conn(), ref.SemLen())
			}
		}
	}
}

// TestIncIdentity pins the identity: Θ = [@>, 0].
func TestIncIdentity(t *testing.T) {
	if got, want := IncIdentity().Key(), Identity().Key(); got != want {
		t.Fatalf("IncIdentity key %v, want %v", got, want)
	}
}

// TestEdgeCacheImmutable guards the shared edge-label singletons: heavy
// composition over edge labels must not corrupt the cached sequences.
func TestEdgeCacheImmutable(t *testing.T) {
	for _, c := range connector.Primaries() {
		l := MustEdge(c)
		// Compose aggressively in both positions.
		x := Con(l, l)
		for _, d := range connector.Primaries() {
			x = Con(x, MustEdge(d))
			x = Con(MustEdge(d), x)
		}
		_ = x
		again := MustEdge(c)
		if again.Conn() != c || again.SemLen() != c.EdgeSemLen() {
			t.Fatalf("edge label for %v corrupted: conn=%v semlen=%d", c, again.Conn(), again.SemLen())
		}
		if len(again.seq) != 1 || again.seq[0] != c {
			t.Fatalf("edge seq for %v corrupted: %v", c, again.seq)
		}
	}
}

// TestFitsInsertNoAllocs asserts the packed set is allocation-free —
// the property the engine's warm-path alloc budget rests on.
func TestFitsInsertNoAllocs(t *testing.T) {
	p, q := NewPacked(2), NewPacked(2)
	p.Insert(Key{Conn: connector.CAssoc, SemLen: 3})
	q.Insert(Key{Conn: connector.CHasPart, SemLen: 2})
	k := Key{Conn: connector.CHasPart, SemLen: 1}
	dst := make([]Key, 0, 4)
	if n := testing.AllocsPerRun(100, func() {
		if !p.Fits(k) || p.Has(k) || p.Conns() == 0 || p.Len() != 1 {
			t.Fatal("wrong answer from a one-key set")
		}
	}); n != 0 {
		t.Fatalf("Fits/Has/Conns/Len allocate %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		p.Insert(k)
		p.Merge(q)
		_ = p.AppendKeys(dst[:0])
		p.Reset()
	}); n != 0 {
		t.Fatalf("Insert/Merge/AppendKeys/Reset allocate %v per run", n)
	}
}
