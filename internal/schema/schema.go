// Package schema implements the object-oriented data model of Section
// 2.1 of Ioannidis & Lashkari (SIGMOD 1994): classes connected by
// binary relationships of five kinds (Isa, May-Be, Has-Part,
// Is-Part-Of, Is-Associated-With), represented as a directed graph
// with one node per class and one edge per relationship.
//
// Following the paper, every relationship is stored together with its
// inverse, relationship names default to the target class name, and
// the four primitive classes I (integers), R (reals), C (character
// strings), and B (booleans) are always present.
package schema

import (
	"fmt"
	"sort"
	"sync"

	"pathcomplete/internal/connector"
)

// ClassID identifies a class within a Schema. IDs are dense indices
// assigned in creation order; the four primitive classes always get
// IDs 0–3.
type ClassID int32

// NoClass is the invalid ClassID.
const NoClass ClassID = -1

// RelID identifies a relationship (a directed edge) within a Schema.
type RelID int32

// NoRel is the invalid RelID, used for relationships without a stored
// inverse.
const NoRel RelID = -1

// PrimitiveNames are the reserved names of the four system-provided
// primitive classes, in ID order.
var PrimitiveNames = [4]string{"I", "R", "C", "B"}

// Class is a node of the schema graph.
type Class struct {
	ID        ClassID
	Name      string
	Primitive bool
}

// Rel is a directed relationship edge between two classes.
type Rel struct {
	ID   RelID
	Name string // relationship name; defaults to the target class name
	From ClassID
	To   ClassID
	Conn connector.Connector // primary connector: @>, <@, $>, <$, or .
	Inv  RelID               // the inverse relationship, or NoRel
}

// Schema is an immutable schema graph. Build one with a Builder.
type Schema struct {
	name    string
	classes []Class
	byName  map[string]ClassID
	rels    []Rel
	out     [][]RelID // outgoing edges per class, sorted by edge strength

	namedOnce sync.Once
	named     map[string][]RelID // edges per relationship name, in ID order
}

// Name returns the schema's display name.
func (s *Schema) Name() string { return s.name }

// NumClasses returns the total number of classes, including the four
// primitives.
func (s *Schema) NumClasses() int { return len(s.classes) }

// NumUserClasses returns the number of user-defined (non-primitive)
// classes.
func (s *Schema) NumUserClasses() int { return len(s.classes) - len(PrimitiveNames) }

// NumRels returns the total number of relationship edges, counting
// each direction of an inverse pair separately (as the paper does:
// "92 user-defined classes and 364 relationships").
func (s *Schema) NumRels() int { return len(s.rels) }

// Class returns the class with the given ID.
func (s *Schema) Class(id ClassID) Class { return s.classes[id] }

// ClassByName looks a class up by name.
func (s *Schema) ClassByName(name string) (Class, bool) {
	id, ok := s.byName[name]
	if !ok {
		return Class{}, false
	}
	return s.classes[id], true
}

// MustClass is ClassByName, panicking if the class does not exist.
// Intended for tests and example code over known schemas.
func (s *Schema) MustClass(name string) Class {
	c, ok := s.ClassByName(name)
	if !ok {
		panic(fmt.Sprintf("schema %s: no class %q", s.name, name))
	}
	return c
}

// Rel returns the relationship with the given ID.
func (s *Schema) Rel(id RelID) Rel { return s.rels[id] }

// Out returns the outgoing relationships of a class, ordered
// best-to-worst by edge connector strength (the children[] ordering
// that Algorithm 2 relies on for branch-and-bound) with name as a
// deterministic tiebreaker. The returned slice is shared; callers must
// not modify it.
func (s *Schema) Out(id ClassID) []RelID { return s.out[id] }

// OutRel finds the outgoing relationship of class id with the given
// name, if any. Names are unique among a class's outgoing edges.
func (s *Schema) OutRel(id ClassID, name string) (Rel, bool) {
	for _, rid := range s.out[id] {
		if r := s.rels[rid]; r.Name == name {
			return r, true
		}
	}
	return Rel{}, false
}

// RelsNamed returns every relationship edge in the schema carrying the
// given name, in ID order. Incomplete path expressions are anchored on
// relationship names, which need not be unique schema-wide.
func (s *Schema) RelsNamed(name string) []Rel {
	ids := s.RelIDsNamed(name)
	if len(ids) == 0 {
		return nil
	}
	out := make([]Rel, len(ids))
	for i, id := range ids {
		out[i] = s.rels[id]
	}
	return out
}

// RelIDsNamed is RelsNamed as IDs, without allocating. The name index
// behind it is built on the first call, so loading a schema does not
// pay for it. The returned slice is shared; callers must not modify
// it.
func (s *Schema) RelIDsNamed(name string) []RelID {
	s.namedOnce.Do(func() {
		s.named = make(map[string][]RelID)
		for _, r := range s.rels {
			s.named[r.Name] = append(s.named[r.Name], r.ID)
		}
	})
	return s.named[name]
}

// Classes returns all classes in ID order. The returned slice is
// fresh.
func (s *Schema) Classes() []Class {
	out := make([]Class, len(s.classes))
	copy(out, s.classes)
	return out
}

// Rels returns all relationships in ID order. The returned slice is
// fresh.
func (s *Schema) Rels() []Rel {
	out := make([]Rel, len(s.rels))
	copy(out, s.rels)
	return out
}

// Builder assembles a Schema. The zero value is not usable; create
// builders with NewBuilder. Methods that add classes are idempotent on
// the class name; methods that add relationships automatically add the
// inverse relationship as well, as the paper assumes.
type Builder struct {
	name    string
	classes []Class
	byName  map[string]ClassID
	rels    []Rel
	errs    []error
}

// NewBuilder returns a Builder for a schema with the given display
// name, pre-populated with the four primitive classes.
func NewBuilder(name string) *Builder {
	b := &Builder{name: name, byName: make(map[string]ClassID)}
	for _, n := range PrimitiveNames {
		id := ClassID(len(b.classes))
		b.classes = append(b.classes, Class{ID: id, Name: n, Primitive: true})
		b.byName[n] = id
	}
	return b
}

// Class ensures a user-defined class with the given name exists and
// returns its ID. Referring to a primitive name returns the primitive
// class.
func (b *Builder) Class(name string) ClassID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	if name == "" {
		b.errs = append(b.errs, fmt.Errorf("schema %s: empty class name", b.name))
		return NoClass
	}
	id := ClassID(len(b.classes))
	b.classes = append(b.classes, Class{ID: id, Name: name})
	b.byName[name] = id
	return id
}

// addPair appends a relationship and its inverse, cross-linking them.
func (b *Builder) addPair(from, to ClassID, conn connector.Connector, name, invName string) {
	if from == NoClass || to == NoClass {
		return
	}
	if name == "" {
		name = b.classes[to].Name
	}
	if invName == "" {
		invName = b.classes[from].Name
	}
	fwd := RelID(len(b.rels))
	inv := fwd + 1
	b.rels = append(b.rels,
		Rel{ID: fwd, Name: name, From: from, To: to, Conn: conn, Inv: inv},
		Rel{ID: inv, Name: invName, From: to, To: from, Conn: conn.Inverse(), Inv: fwd},
	)
}

// Isa declares sub Isa super (and super May-Be sub). The relationship
// names default to the class names.
func (b *Builder) Isa(sub, super string) {
	b.addPair(b.Class(sub), b.Class(super), connector.CIsa, "", "")
}

// HasPart declares that super structurally contains part (and part
// Is-Part-Of super). Optional names override the forward and inverse
// relationship names, which default to the target class names.
func (b *Builder) HasPart(super, part string, names ...string) {
	name, invName := optNames(names)
	b.addPair(b.Class(super), b.Class(part), connector.CHasPart, name, invName)
}

// Assoc declares a mutual Is-Associated-With relationship between a
// and z. Optional names override the forward and inverse relationship
// names.
func (b *Builder) Assoc(a, z string, names ...string) {
	name, invName := optNames(names)
	b.addPair(b.Class(a), b.Class(z), connector.CAssoc, name, invName)
}

// Attr declares an attribute: an Is-Associated-With relationship from
// class to one of the primitive classes ("I", "R", "C", or "B") under
// the given attribute name.
func (b *Builder) Attr(class, name, primitive string) {
	to, ok := b.byName[primitive]
	if !ok || !b.classes[to].Primitive {
		b.errs = append(b.errs, fmt.Errorf("schema %s: attribute %s.%s: %q is not a primitive class",
			b.name, class, name, primitive))
		return
	}
	b.addPair(b.Class(class), to, connector.CAssoc, name, b.classes[b.Class(class)].Name+"_of_"+name)
}

func optNames(names []string) (name, invName string) {
	if len(names) > 0 {
		name = names[0]
	}
	if len(names) > 1 {
		invName = names[1]
	}
	return name, invName
}

// Build validates the accumulated declarations and returns the
// finished schema.
func (b *Builder) Build() (*Schema, error) {
	s := &Schema{
		name:    b.name,
		classes: b.classes,
		byName:  b.byName,
		rels:    b.rels,
		out:     make([][]RelID, len(b.classes)),
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, r := range s.rels {
		s.out[r.From] = append(s.out[r.From], r.ID)
	}
	// Order children best-to-worst by edge label strength: connector
	// rank first, then edge semantic length (constant per rank here),
	// then name and target for determinism.
	for _, ids := range s.out {
		sort.Slice(ids, func(i, j int) bool {
			a, b := s.rels[ids[i]], s.rels[ids[j]]
			if ra, rb := a.Conn.Rank(), b.Conn.Rank(); ra != rb {
				return ra < rb
			}
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			return a.To < b.To
		})
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustBuild is Build, panicking on error. Intended for the statically
// known schemas shipped with the repository.
func (b *Builder) MustBuild() *Schema {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}
