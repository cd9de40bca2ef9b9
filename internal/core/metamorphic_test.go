package core

// Metamorphic properties of the completion engine: transformations of
// the input (query or schema) with a known, provable effect on the
// output. Unlike the differential oracle these need no second
// implementation to compare against — the property itself is the
// oracle — so they catch bugs the engines could share.
//
//  1. Identity: completing an already-complete path expression returns
//     exactly that path, with its own label.
//  2. Irrelevance: adding an unreachable component to the schema never
//     changes any answer rooted in the original component.
//  3. Renaming: consistently renaming every class, relationship, and
//     attribute yields isomorphic completions (the same answers under
//     the rename map).
//
// Degeneration (AGG* with E=1 is plain AGG) is checked by the
// differential harness on the labels of every Ψ it enumerates.

import (
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
)

// TestMetamorphicCompleteIdentity: a complete consistent path
// expression is its own unique completion, labelled by itself. Source
// paths come from real completions of incomplete queries, so the set
// covers every connector mix the engine produces.
func TestMetamorphicCompleteIdentity(t *testing.T) {
	for seed := int64(300); seed < 330; seed++ {
		s := randSchema(t, seed)
		r := rand.New(rand.NewSource(seed * 131))
		cmp := New(s, Exact())
		for _, root := range s.Classes() {
			if root.Primitive {
				continue
			}
			for _, anchor := range anchors(s, r) {
				e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
				res, err := cmp.Complete(e)
				if err != nil {
					continue
				}
				for _, c := range res.Completions {
					full := c.Path.Expr()
					if full.Incomplete() {
						t.Fatalf("seed %d: completion %v rendered incomplete", seed, c.Path)
					}
					again, err := cmp.Complete(full)
					if err != nil {
						t.Errorf("seed %d: completing the complete path %v failed: %v", seed, full, err)
						continue
					}
					if len(again.Completions) != 1 {
						t.Errorf("seed %d: complete path %v returned %d completions, want exactly itself",
							seed, full, len(again.Completions))
						continue
					}
					got := again.Completions[0]
					if got.Path.String() != c.Path.String() {
						t.Errorf("seed %d: complete path changed under completion:\n in:  %v\n out: %v",
							seed, c.Path, got.Path)
					}
					if got.Label.String() != c.Label.String() {
						t.Errorf("seed %d: label changed under identity completion of %v: %v != %v",
							seed, full, got.Label, c.Label)
					}
				}
			}
		}
	}
}

// TestMetamorphicUnreachableComponent: grafting a disconnected
// component onto the schema (new classes, relationships, and attribute
// names shared with the original — maximally tempting for an engine
// that matched anchors globally) changes no answer rooted in the
// original component.
func TestMetamorphicUnreachableComponent(t *testing.T) {
	for seed := int64(400); seed < 430; seed++ {
		s := randSchema(t, seed)
		text, err := sdl.WriteString(s)
		if err != nil {
			t.Fatalf("seed %d: WriteString: %v", seed, err)
		}
		// The grafted component reuses the shared anchor names ("label",
		// "size") and adds internal structure, but no edge touches the
		// original classes.
		grafted := text + strings.Join([]string{
			"class zz_island_a",
			"class zz_island_b",
			"class zz_island_c",
			"haspart zz_island_a zz_island_b zz_hp zz_ph",
			"assoc zz_island_b zz_island_c zz_as zz_sa",
			"isa zz_island_c zz_island_a",
			"attr zz_island_a label C",
			"attr zz_island_b size I",
		}, "\n") + "\n"
		s2, err := sdl.ParseString(grafted)
		if err != nil {
			t.Fatalf("seed %d: ParseString(grafted): %v", seed, err)
		}
		r := rand.New(rand.NewSource(seed * 733))
		base, big := New(s, Exact()), New(s2, Exact())
		for _, root := range s.Classes() {
			if root.Primitive {
				continue
			}
			for _, anchor := range anchors(s, r) {
				e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
				want, errW := base.Complete(e)
				got, errG := big.Complete(e)
				if errW != nil {
					// The graft may introduce an anchor name absent from the
					// base schema ("size" when no base class carried it),
					// turning "unknown anchor" into a well-formed query —
					// which must still have no answer from an original root.
					if errG == nil && len(got.Completions) > 0 {
						t.Errorf("seed %d %v: unreachable component produced completions %v for an anchor the base schema lacks",
							seed, e, got.Strings())
					}
					continue
				}
				if errG != nil {
					t.Errorf("seed %d %v: unreachable component broke a working query: %v", seed, e, errG)
					continue
				}
				if !reflect.DeepEqual(view(want), view(got)) {
					t.Errorf("seed %d %v: unreachable component changed the answer:\n base:    %+v\n grafted: %+v",
						seed, e, view(want), view(got))
				}
			}
		}
	}
}

// identRe matches identifier tokens inside SDL text and rendered path
// expressions.
var identRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// renameIdents maps every identifier in text through m, leaving tokens
// outside the map (separators, primitives, keywords) untouched.
func renameIdents(text string, m map[string]string) string {
	return identRe.ReplaceAllStringFunc(text, func(tok string) string {
		if to, ok := m[tok]; ok {
			return to
		}
		return tok
	})
}

// renameSchema serializes s, renames every class, relationship, and
// attribute name per m (positionally per directive, so SDL keywords
// and PRIM codes are never touched), and parses the result back.
func renameSchema(t *testing.T, s *schema.Schema, m map[string]string) *schema.Schema {
	t.Helper()
	text, err := sdl.WriteString(s)
	if err != nil {
		t.Fatalf("WriteString: %v", err)
	}
	var out []string
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		rn := func(i int) {
			if to, ok := m[f[i]]; ok {
				f[i] = to
			}
		}
		switch f[0] {
		case "schema":
			// schema name is not an identifier the queries see
		case "class":
			rn(1)
		case "isa":
			rn(1)
			rn(2)
		case "haspart", "assoc":
			for i := 1; i < len(f); i++ {
				rn(i)
			}
		case "attr":
			rn(1)
			rn(2) // field 3 is the PRIM code: never renamed
		default:
			t.Fatalf("unknown SDL directive %q in %q", f[0], line)
		}
		out = append(out, strings.Join(f, " "))
	}
	s2, err := sdl.ParseString(strings.Join(out, "\n") + "\n")
	if err != nil {
		t.Fatalf("ParseString(renamed): %v", err)
	}
	return s2
}

// TestMetamorphicRenaming: renaming every identifier consistently
// (class names, relationship names, attribute names — never the
// primitive type codes) yields isomorphic completions: the renamed
// engine's answers are exactly the original answers pushed through the
// rename map, with identical labels and best sets.
func TestMetamorphicRenaming(t *testing.T) {
	for seed := int64(500); seed < 530; seed++ {
		s := randSchema(t, seed)
		// Build the rename map over every user class, relationship, and
		// attribute name. The "md5_"-style prefix guarantees no collision
		// with keywords, PRIM codes, or existing names.
		m := map[string]string{}
		for _, c := range s.Classes() {
			if !c.Primitive {
				m[c.Name] = "ren_" + c.Name
			}
		}
		for _, rel := range s.Rels() {
			if _, ok := m[rel.Name]; !ok {
				m[rel.Name] = "ren_" + rel.Name
			}
		}
		// Attribute inverses are auto-derived by the builder as
		// "<class>_of_<attr>"; the renamed schema regenerates them from
		// the renamed parts, so the map must follow that derivation.
		for _, rel := range s.Rels() {
			if s.Class(rel.From).Primitive && !s.Class(rel.To).Primitive {
				cls := s.Class(rel.To).Name
				attr := s.Rel(rel.Inv).Name
				m[rel.Name] = "ren_" + cls + "_of_ren_" + attr
			}
		}
		s2 := renameSchema(t, s, m)

		r := rand.New(rand.NewSource(seed * 947))
		orig, ren := New(s, Exact()), New(s2, Exact())
		for _, root := range s.Classes() {
			if root.Primitive {
				continue
			}
			for _, anchor := range anchors(s, r) {
				e := pathexpr.Expr{Root: root.Name, Steps: []pathexpr.Step{{Gap: true, Name: anchor}}}
				e2 := pathexpr.Expr{Root: m[root.Name], Steps: []pathexpr.Step{{Gap: true, Name: mapName(m, anchor)}}}
				want, errW := orig.Complete(e)
				got, errG := ren.Complete(e2)
				if (errW == nil) != (errG == nil) {
					t.Errorf("seed %d %v: error status changed under renaming: %v vs %v", seed, e, errW, errG)
					continue
				}
				if errW != nil {
					continue
				}
				wv, gv := view(want), view(got)
				// Push the original answers through the rename map.
				for i, p := range wv.Completions {
					wv.Completions[i] = renameIdents(p, m)
				}
				if !reflect.DeepEqual(wv, gv) {
					t.Errorf("seed %d %v: renaming is not an isomorphism:\n renamed original: %+v\n renamed engine:   %+v",
						seed, e, wv, gv)
				}
			}
		}
	}
}

// mapName maps a name through m, passing through names outside it
// (shared attribute anchors are always in m via relationship names).
func mapName(m map[string]string, n string) string {
	if to, ok := m[n]; ok {
		return to
	}
	return n
}
