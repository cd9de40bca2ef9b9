//go:build !race

package gapre

import (
	"strconv"
	"testing"
)

// TestDeterminizeAllocs bounds the cost of learning that `.*` is
// universal over a schema-sized vocabulary: 364 edge symbols, the
// relationship count of the paper-scale cupid schema. Every step of the
// simulation is memoized, so the allocations are the machine table and
// the memo's few rows, not one per spelled rune. The bound is about 2x
// the measured steady state; the file is excluded under -race, whose
// runtime adds allocations of its own.
func TestDeterminizeAllocs(t *testing.T) {
	conns := []string{".", "@>", "<@", "$>", "<$"}
	first := make([]string, 364)
	rest := make([]string, 364)
	for i := range first {
		first[i] = "rel_" + strconv.Itoa(i)
		rest[i] = conns[i%len(conns)] + first[i]
	}
	rx, err := Compile(`.*`)
	if err != nil {
		t.Fatal(err)
	}
	var m *Machine
	got := testing.AllocsPerRun(20, func() {
		if m, err = Determinize(rx, first, rest); err != nil {
			t.Fatal(err)
		}
	})
	if !m.Universal() || m.NumStates() != 2 {
		t.Fatalf(".* over the vocabulary: universal=%v with %d states, want universal with 2", m.Universal(), m.NumStates())
	}
	const bound = 50
	if got > bound {
		t.Errorf("Determinize(.*) allocates %.0f/op over %d symbols, want <= %d", got, len(first), bound)
	}
	t.Logf("Determinize(.*) over %d symbols: %.0f allocs/op", len(first), got)
}
