// Package pred is the comparison-predicate core shared by the Fox
// query layer (where clauses evaluated over object-store results) and
// the search kernel (predicate-annotated path segments pruned during
// traversal). It is a leaf package on purpose: fox sits above the
// kernel, so the kernel can only see predicates through a package
// neither of them owns.
//
// A predicate is `attr op literal`. The attribute "self" compares the
// result values themselves; any other name compares attribute values
// of the final objects, with exists semantics for multi-valued
// attributes. Unknown attributes and type mismatches make a predicate
// false for that object, never an error — that asymmetry is what
// licenses schema-level pruning: a class that cannot carry the
// attribute can only ever produce predicate-false objects.
package pred

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is a comparison operator.
type Op int

// The comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var opSymbols = map[string]Op{
	"=": OpEq, "==": OpEq, "!=": OpNe, "<>": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

var opNames = map[Op]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// String renders the operator in query syntax.
func (op Op) String() string { return opNames[op] }

// Predicate is a comparison: attribute, operator, literal. The
// attribute "self" refers to the result values themselves.
type Predicate struct {
	Attr  string
	Op    Op
	Value any // int64, float64, string, or bool
}

// String renders the predicate in query syntax.
func (p *Predicate) String() string {
	if s, ok := p.Value.(string); ok {
		return fmt.Sprintf("%s %s %q", p.Attr, opNames[p.Op], s)
	}
	return fmt.Sprintf("%s %s %v", p.Attr, opNames[p.Op], p.Value)
}

// Parse parses "attr op literal".
func Parse(src string) (*Predicate, error) {
	fields := split(src)
	if len(fields) != 3 {
		return nil, fmt.Errorf("predicate must be `attr op literal`, got %q", src)
	}
	op, ok := opSymbols[fields[1]]
	if !ok {
		return nil, fmt.Errorf("unknown operator %q", fields[1])
	}
	val, err := ParseLiteral(fields[2])
	if err != nil {
		return nil, err
	}
	return &Predicate{Attr: fields[0], Op: op, Value: val}, nil
}

// split tokenizes the clause, keeping quoted strings intact.
func split(src string) []string {
	var out []string
	i := 0
	for i < len(src) {
		switch c := src[i]; {
		case c == ' ' || c == '\t':
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j < len(src) {
				j++
			}
			out = append(out, src[i:j])
			i = j
		default:
			j := i
			for j < len(src) && src[j] != ' ' && src[j] != '\t' {
				j++
			}
			out = append(out, src[i:j])
			i = j
		}
	}
	return out
}

// ParseLiteral parses a predicate literal: quoted string, boolean,
// integer, or real.
func ParseLiteral(src string) (any, error) {
	if len(src) >= 2 && src[0] == '"' && src[len(src)-1] == '"' {
		inner := src[1 : len(src)-1]
		// The grammar has no escape sequences, so a literal containing
		// a quote or backslash could never render back unambiguously.
		if strings.ContainsAny(inner, `"\`) {
			return nil, fmt.Errorf("string literal %s may not contain quotes or backslashes", src)
		}
		return inner, nil
	}
	switch src {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if n, err := strconv.ParseInt(src, 10, 64); err == nil {
		return n, nil
	}
	if f, err := strconv.ParseFloat(src, 64); err == nil {
		return f, nil
	}
	return nil, fmt.Errorf("cannot parse literal %q (use a quoted string, a number, or true/false)", src)
}

// Matches applies exists semantics over candidate values: true if any
// value satisfies the comparison.
func (p *Predicate) Matches(vals []any) bool {
	for _, v := range vals {
		if Compare(v, p.Op, p.Value) {
			return true
		}
	}
	return false
}

// AllowedPrimitives names the primitive classes whose values could
// ever satisfy the predicate's literal under Compare's coercion
// rules: numeric literals coerce between I and R, strings compare
// only with C, booleans only with B. An object typed outside this set
// is predicate-false by construction, so the kernel may prune the
// classes that can only reach such objects.
func (p *Predicate) AllowedPrimitives() []string {
	switch p.Value.(type) {
	case int64, float64:
		return []string{"I", "R"}
	case string:
		return []string{"C"}
	case bool:
		return []string{"B"}
	}
	return nil
}

// Compare evaluates `a op b` with numeric coercion between integers
// and reals; strings compare lexicographically; booleans support only
// equality.
func Compare(a any, op Op, b any) bool {
	if af, aok := toFloat(a); aok {
		bf, bok := toFloat(b)
		if !bok {
			return false
		}
		switch op {
		case OpEq:
			return af == bf
		case OpNe:
			return af != bf
		case OpLt:
			return af < bf
		case OpLe:
			return af <= bf
		case OpGt:
			return af > bf
		case OpGe:
			return af >= bf
		}
		return false
	}
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		if !ok {
			return false
		}
		switch op {
		case OpEq:
			return av == bv
		case OpNe:
			return av != bv
		case OpLt:
			return av < bv
		case OpLe:
			return av <= bv
		case OpGt:
			return av > bv
		case OpGe:
			return av >= bv
		}
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return false
		}
		switch op {
		case OpEq:
			return av == bv
		case OpNe:
			return av != bv
		}
	}
	return false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// Canon renders the predicate in a canonical single-space form used
// for identity (cache keys, pattern equality). Parse(Canon(p))
// round-trips.
func (p *Predicate) Canon() string {
	var b strings.Builder
	b.WriteString(p.Attr)
	b.WriteByte(' ')
	b.WriteString(opNames[p.Op])
	b.WriteByte(' ')
	if s, ok := p.Value.(string); ok {
		fmt.Fprintf(&b, "%q", s)
	} else {
		fmt.Fprintf(&b, "%v", p.Value)
	}
	return b.String()
}
