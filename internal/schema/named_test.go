package schema_test

import (
	"reflect"
	"testing"

	"pathcomplete/internal/cupid"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/uni"
)

// TestRelsNamedMatchesScan: the name index answers RelsNamed and
// RelIDsNamed exactly as a scan of every relationship does, for every
// relationship and class name of cupid92 and of the university schema,
// and for a name no edge carries.
func TestRelsNamedMatchesScan(t *testing.T) {
	w, err := cupid.Generate(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*schema.Schema{w.Schema, uni.New()} {
		names := map[string]bool{"no_such_name": true}
		for _, r := range s.Rels() {
			names[r.Name] = true
		}
		for _, c := range s.Classes() {
			names[c.Name] = true
		}
		for name := range names {
			var want []schema.Rel
			var wantIDs []schema.RelID
			for _, r := range s.Rels() {
				if r.Name == name {
					want = append(want, r)
					wantIDs = append(wantIDs, r.ID)
				}
			}
			if got := s.RelsNamed(name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: RelsNamed(%q) = %v, scan finds %v", s.Name(), name, got, want)
			}
			if got := s.RelIDsNamed(name); !reflect.DeepEqual(got, wantIDs) {
				t.Errorf("%s: RelIDsNamed(%q) = %v, scan finds %v", s.Name(), name, got, wantIDs)
			}
		}
	}
}
