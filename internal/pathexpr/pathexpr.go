// Package pathexpr implements the path expressions of Section 2.2 of
// Ioannidis & Lashkari (SIGMOD 1994): the primary mechanism of OO
// query languages for specifying object relationships.
//
// A path expression starts at a root class and traverses
// relationships; each traversal is written as a connector symbol
// followed by a relationship name:
//
//	student.take.teacher
//	ta@>grad@>student@>person.name
//	department.student$>person.name
//
// An incomplete path expression additionally uses the ~ connector,
// which is matched by an arbitrarily long path whose last relationship
// carries the given name:
//
//	ta ~ name
//	department ~ course . teacher
//
// A gap may carry a regular-expression constraint between its tilde
// and a second tilde before the anchor, restricting which paths may
// fill it (see internal/gapre for the fragment spelling the regex
// matches against):
//
//	ta ~(advisor.*)~ name
//
// Any step — gap or explicit — may carry a bracketed predicate that
// the query layer pushes down into the search, restricting the
// segment's end class to ones that can satisfy it:
//
//	department ~ course[credits > 3]
//	ta ~ name[self = "Yezdi"]
package pathexpr

import (
	"fmt"
	"strings"

	"pathcomplete/internal/connector"
	"pathcomplete/internal/gapre"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pred"
	"pathcomplete/internal/schema"
)

// Step is one traversal step of a path expression.
type Step struct {
	// Gap marks a ~ step: an unspecified path whose final relationship
	// is named Name. When Gap is false the step traverses a single
	// relationship named Name whose kind is Conn.
	Gap  bool
	Conn connector.Connector
	Name string
	// Constraint is the regular expression of a constrained gap
	// (`~(RE)~name`), verbatim as written; empty means unconstrained.
	// Only gap steps may carry one.
	Constraint string
	// Pred is the step's pushed-down predicate (`name[attr op lit]`)
	// in canonical form; empty means none.
	Pred string
}

// String renders the step in query syntax, e.g. "@>grad", "~name",
// "~(advisor.*)~name", or "~course[credits > 3]".
func (st Step) String() string {
	var sb strings.Builder
	st.write(&sb)
	return sb.String()
}

// write appends the step's query syntax to sb: Step.String and
// Expr.String share it, so an expression renders into one builder.
func (st Step) write(sb *strings.Builder) {
	if st.Gap {
		sb.WriteByte('~')
		if st.Constraint != "" {
			sb.WriteByte('(')
			sb.WriteString(st.Constraint)
			sb.WriteString(")~")
		}
	} else {
		sb.WriteString(st.Conn.String())
	}
	sb.WriteString(st.Name)
	if st.Pred != "" {
		sb.WriteByte('[')
		sb.WriteString(st.Pred)
		sb.WriteByte(']')
	}
}

// Constrained reports whether the expression carries any gap
// constraint or step predicate — i.e. whether its answers are a
// restriction of the bare expression's.
func (e Expr) Constrained() bool {
	for _, st := range e.Steps {
		if st.Constraint != "" || st.Pred != "" {
			return true
		}
	}
	return false
}

// Expr is a parsed path expression: a root class name followed by
// traversal steps.
type Expr struct {
	Root  string
	Steps []Step
}

// Incomplete reports whether the expression contains at least one ~
// step (Section 2.2.2).
func (e Expr) Incomplete() bool {
	for _, st := range e.Steps {
		if st.Gap {
			return true
		}
	}
	return false
}

// Gaps returns the number of ~ steps.
func (e Expr) Gaps() int {
	n := 0
	for _, st := range e.Steps {
		if st.Gap {
			n++
		}
	}
	return n
}

// String renders the expression in query syntax.
func (e Expr) String() string {
	var sb strings.Builder
	sb.WriteString(e.Root)
	for _, st := range e.Steps {
		st.write(&sb)
	}
	return sb.String()
}

// Parse parses a path expression. Whitespace is permitted anywhere
// between tokens, so "ta ~ name" and "ta~name" are equivalent.
func Parse(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return Expr{}, err
	}
	if len(toks) == 0 {
		return Expr{}, fmt.Errorf("pathexpr: empty expression")
	}
	if toks[0].kind != tokIdent {
		return Expr{}, fmt.Errorf("pathexpr: expression must start with a class name, got %q", toks[0].text)
	}
	if toks[0].pred != "" {
		return Expr{}, fmt.Errorf("pathexpr: offset %d: root class %q may not carry a predicate", toks[0].pos, toks[0].text)
	}
	e := Expr{Root: toks[0].text}
	i := 1
	for i < len(toks) {
		op := toks[i]
		if op.kind == tokIdent {
			return Expr{}, fmt.Errorf("pathexpr: offset %d: expected a connector before %q", op.pos, op.text)
		}
		if i+1 >= len(toks) || toks[i+1].kind != tokIdent {
			return Expr{}, fmt.Errorf("pathexpr: offset %d: connector %q must be followed by a relationship name", op.pos, op.text)
		}
		name := toks[i+1]
		if op.kind == tokTilde {
			e.Steps = append(e.Steps, Step{Gap: true, Name: name.text, Constraint: op.constraint, Pred: name.pred})
		} else {
			e.Steps = append(e.Steps, Step{Conn: op.conn, Name: name.text, Pred: name.pred})
		}
		i += 2
	}
	return e, nil
}

// MustParse is Parse, panicking on error.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind int

const (
	tokIdent tokKind = iota
	tokConn
	tokTilde
)

type token struct {
	kind       tokKind
	text       string
	pos        int
	conn       connector.Connector
	constraint string // tokTilde: the regex of `~(RE)~`, "" when bare
	pred       string // tokIdent: canonical `[attr op lit]` body, "" when absent
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '~':
			tok := token{kind: tokTilde, text: "~", pos: i}
			i++
			// `~(RE)~` — a constrained gap. Parens have no other role
			// in the grammar, so whitespace before `(` is permitted.
			if j := skipSpace(src, i); j < len(src) && src[j] == '(' {
				re, next, err := scanConstraint(src, j)
				if err != nil {
					return nil, err
				}
				next = skipSpace(src, next)
				if next >= len(src) || src[next] != '~' {
					return nil, fmt.Errorf("pathexpr: offset %d: gap constraint must be closed by a second ~", j)
				}
				if re == "" {
					return nil, fmt.Errorf("pathexpr: offset %d: empty gap constraint", j)
				}
				if _, err := gapre.Compile(re); err != nil {
					return nil, fmt.Errorf("pathexpr: offset %d: %v", j, err)
				}
				tok.constraint = re
				i = next + 1
			}
			toks = append(toks, tok)
		case c == '.':
			toks = append(toks, token{kind: tokConn, text: ".", pos: i, conn: connector.CAssoc})
			i++
		case i+1 < len(src) && isConnPair(src[i:i+2]):
			cc, _ := connector.Parse(src[i : i+2])
			toks = append(toks, token{kind: tokConn, text: src[i : i+2], pos: i, conn: cc})
			i += 2
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			tok := token{kind: tokIdent, text: src[i:j], pos: i}
			i = j
			// `name[attr op lit]` — a pushed-down step predicate.
			if k := skipSpace(src, i); k < len(src) && src[k] == '[' {
				raw, next, err := scanPred(src, k)
				if err != nil {
					return nil, err
				}
				p, err := pred.Parse(raw)
				if err != nil {
					return nil, fmt.Errorf("pathexpr: offset %d: %v", k, err)
				}
				tok.pred = p.Canon()
				i = next
			}
			toks = append(toks, tok)
		default:
			return nil, fmt.Errorf("pathexpr: offset %d: unexpected character %q", i, string(c))
		}
	}
	return toks, nil
}

func skipSpace(src string, i int) int {
	for i < len(src) {
		switch src[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanConstraint scans a parenthesized gap regex starting at the `(`
// at src[i], honoring regex escapes and character classes so that a
// `)` inside either does not close the constraint. It returns the
// regex text and the index just past the closing paren.
func scanConstraint(src string, i int) (re string, next int, err error) {
	depth := 1
	j := i + 1
	for j < len(src) {
		switch src[j] {
		case '\\':
			j += 2
			continue
		case '[':
			k := j + 1
			if k < len(src) && src[k] == '^' {
				k++
			}
			if k < len(src) && src[k] == ']' {
				k++ // leading ] is a literal inside a class
			}
			for k < len(src) && src[k] != ']' {
				if src[k] == '\\' {
					k++
				}
				k++
			}
			if k >= len(src) {
				return "", 0, fmt.Errorf("pathexpr: offset %d: unterminated character class in gap constraint", j)
			}
			j = k + 1
			continue
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return src[i+1 : j], j + 1, nil
			}
		}
		j++
	}
	return "", 0, fmt.Errorf("pathexpr: offset %d: unterminated gap constraint", i)
}

// scanPred scans a bracketed predicate starting at the `[` at src[i],
// keeping quoted strings intact. It returns the raw clause and the
// index just past the closing bracket.
func scanPred(src string, i int) (raw string, next int, err error) {
	j := i + 1
	for j < len(src) {
		switch src[j] {
		case '"':
			k := j + 1
			for k < len(src) && src[k] != '"' {
				k++
			}
			if k >= len(src) {
				return "", 0, fmt.Errorf("pathexpr: offset %d: unterminated string in predicate", j)
			}
			j = k + 1
			continue
		case ']':
			return src[i+1 : j], j + 1, nil
		}
		j++
	}
	return "", 0, fmt.Errorf("pathexpr: offset %d: unterminated predicate", i)
}

func isConnPair(s string) bool {
	switch s {
	case "@>", "<@", "$>", "<$":
		return true
	}
	return false
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c == '-' || (c >= '0' && c <= '9')
}

// Resolved is a complete path expression bound to a schema: the
// concrete relationship edges it traverses and the classes it visits.
type Resolved struct {
	Schema  *schema.Schema
	Root    schema.ClassID
	Rels    []schema.RelID   // one per step
	Classes []schema.ClassID // root plus the class after each step
}

// Resolve binds a complete path expression to a schema, checking that
// the root class exists and is not primitive, that every step names an
// outgoing relationship of the current class, and that each step's
// connector matches the relationship's kind.
func Resolve(s *schema.Schema, e Expr) (*Resolved, error) {
	if e.Incomplete() {
		return nil, fmt.Errorf("pathexpr: cannot resolve incomplete expression %v", e)
	}
	root, ok := s.ClassByName(e.Root)
	if !ok {
		return nil, fmt.Errorf("pathexpr: unknown root class %q", e.Root)
	}
	if root.Primitive {
		return nil, fmt.Errorf("pathexpr: root class %q is primitive", e.Root)
	}
	r := &Resolved{Schema: s, Root: root.ID, Classes: []schema.ClassID{root.ID}}
	cur := root.ID
	for _, st := range e.Steps {
		rel, ok := s.OutRel(cur, st.Name)
		if !ok {
			return nil, fmt.Errorf("pathexpr: class %q has no relationship named %q",
				s.Class(cur).Name, st.Name)
		}
		if rel.Conn != st.Conn {
			return nil, fmt.Errorf("pathexpr: relationship %s.%s is %v, written as %v",
				s.Class(cur).Name, st.Name, rel.Conn, st.Conn)
		}
		r.Rels = append(r.Rels, rel.ID)
		cur = rel.To
		r.Classes = append(r.Classes, cur)
	}
	return r, nil
}

// FromRels builds the Resolved expression for a concrete edge
// sequence starting at root. It validates edge chaining.
func FromRels(s *schema.Schema, root schema.ClassID, rels []schema.RelID) (*Resolved, error) {
	r := &Resolved{Schema: s, Root: root, Classes: []schema.ClassID{root}}
	cur := root
	for _, rid := range rels {
		rel := s.Rel(rid)
		if rel.From != cur {
			return nil, fmt.Errorf("pathexpr: relationship %s.%s does not start at %s",
				s.Class(rel.From).Name, rel.Name, s.Class(cur).Name)
		}
		r.Rels = append(r.Rels, rid)
		cur = rel.To
		r.Classes = append(r.Classes, cur)
	}
	return r, nil
}

// Expr reconstructs the textual path expression.
func (r *Resolved) Expr() Expr {
	e := Expr{Root: r.Schema.Class(r.Root).Name}
	for _, rid := range r.Rels {
		rel := r.Schema.Rel(rid)
		e.Steps = append(e.Steps, Step{Conn: rel.Conn, Name: rel.Name})
	}
	return e
}

// String renders the resolved expression in query syntax, the same
// text as r.Expr().String(): the root and each relationship go
// straight from the schema into one builder of exactly StringLen
// bytes, one allocation per path.
func (r *Resolved) String() string {
	var sb strings.Builder
	sb.Grow(r.StringLen())
	sb.WriteString(r.Schema.Class(r.Root).Name)
	for _, rid := range r.Rels {
		rel := r.Schema.Rel(rid)
		sb.WriteString(rel.Conn.String())
		sb.WriteString(rel.Name)
	}
	return sb.String()
}

// StringLen returns len(r.String()) without building the string. The
// closure and memo byte estimators price every completion by its
// rendered length.
func (r *Resolved) StringLen() int {
	n := len(r.Schema.Class(r.Root).Name)
	for _, rid := range r.Rels {
		rel := r.Schema.Rel(rid)
		n += rel.Conn.StringLen() + len(rel.Name)
	}
	return n
}

// Label computes the path label (composed connector plus semantic
// length) of the resolved expression.
func (r *Resolved) Label() label.Label {
	l := label.Identity()
	for _, rid := range r.Rels {
		l = label.Con(l, label.MustEdge(r.Schema.Rel(rid).Conn))
	}
	return l
}

// Target returns the final class the expression evaluates into.
func (r *Resolved) Target() schema.ClassID {
	return r.Classes[len(r.Classes)-1]
}

// LastName returns the name of the final relationship, or "" for an
// empty path.
func (r *Resolved) LastName() string {
	if len(r.Rels) == 0 {
		return ""
	}
	return r.Schema.Rel(r.Rels[len(r.Rels)-1]).Name
}

// Acyclic reports whether the expression visits no class twice.
// Following Section 2.2.2, only acyclic expressions are considered as
// completions ("humans do not think circularly").
func (r *Resolved) Acyclic() bool {
	seen := make(map[schema.ClassID]bool, len(r.Classes))
	for _, c := range r.Classes {
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// ConsistentWith reports whether the complete expression r is
// consistent with the incomplete expression inc (Section 2.2.2): same
// root, and the steps of r match inc's steps in order, where a ~ step
// matches one or more relationships of which the last is named with
// the gap's name. A constrained gap additionally requires the
// spelling of its fragment (SpellFragment) to match the constraint;
// step predicates are a semantic restriction evaluated by the search
// kernel and do not participate in syntactic consistency.
func (r *Resolved) ConsistentWith(inc Expr) bool {
	if r.Schema.Class(r.Root).Name != inc.Root {
		return false
	}
	var refs []*gapre.Ref
	for _, st := range inc.Steps {
		var f *gapre.Ref
		if st.Gap && st.Constraint != "" {
			var err error
			if f, err = gapre.NewRef(st.Constraint); err != nil {
				return false
			}
		}
		refs = append(refs, f)
	}
	return matchSteps(r.Schema, r.Rels, inc.Steps, refs)
}

func matchSteps(s *schema.Schema, rels []schema.RelID, steps []Step, refs []*gapre.Ref) bool {
	if len(steps) == 0 {
		return len(rels) == 0
	}
	st := steps[0]
	if !st.Gap {
		if len(rels) == 0 {
			return false
		}
		rel := s.Rel(rels[0])
		if rel.Name != st.Name || rel.Conn != st.Conn {
			return false
		}
		return matchSteps(s, rels[1:], steps[1:], refs[1:])
	}
	// A gap consumes i >= 1 relationships, the last of which either
	// carries the gap's name or ends at a class with that name (since
	// relationship names default to their target class name, a gap
	// anchored on a class name ends at any edge into that class).
	for i := 1; i <= len(rels); i++ {
		r := s.Rel(rels[i-1])
		if r.Name != st.Name && s.Class(r.To).Name != st.Name {
			continue
		}
		if refs[0] != nil && !refs[0].Match(SpellFragment(s, rels[:i])) {
			continue
		}
		if matchSteps(s, rels[i:], steps[1:], refs[1:]) {
			return true
		}
	}
	return false
}

// SpellFragment renders the constraint spelling of a gap fragment:
// the path expression text of the edge sequence with its leading
// connector dropped — the first edge contributes its name, every
// later edge its connector symbol followed by its name. This is the
// string a gap constraint regex matches against (see internal/gapre).
func SpellFragment(s *schema.Schema, rels []schema.RelID) string {
	var sb strings.Builder
	for i, rid := range rels {
		rel := s.Rel(rid)
		if i > 0 {
			sb.WriteString(rel.Conn.String())
		}
		sb.WriteString(rel.Name)
	}
	return sb.String()
}
