// Package gapre compiles the regular-expression constraint of a
// constrained gap (`root ~(RE)~ anchor`) into a deterministic
// automaton over a schema's edge vocabulary.
//
// A gap binds to a fragment of schema edges e1..ek (k >= 1, the last
// edge being the anchor). The fragment's *spelling* is the path
// expression text of the fragment with its leading connector dropped:
// the first edge contributes its relationship name, and every later
// edge contributes its connector symbol followed by its name. The gap
//
//	advisor .person @>student
//
// therefore spells "advisor.person@>student", and the constraint in
// `ta ~(advisor.*)~ name` matches any gap whose first edge is named
// advisor. Connector kinds are matchable by their symbols (escape the
// regex metacharacters: `\$>`, `\.`); class names never appear in the
// spelling — constrain them by the relationship names that reach them.
//
// The package has two deliberately independent implementations of the
// same semantics:
//
//   - Regex/Machine: an NFA simulation over regexp/syntax programs,
//     memoized per (pending set, rune) and determinized eagerly into a
//     dense token-indexed table (the form the search kernel products
//     into its compiled CSR traversal);
//   - Ref: the stdlib regexp engine full-matching the spelled-out
//     fragment string (the post-filter the differential oracle uses).
//
// The two are differentially tested against each other; the kernel
// never calls Ref on its hot path.
package gapre

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"regexp/syntax"
	"slices"
	"unicode/utf8"
)

// MaxStates bounds the determinized automaton. Gap constraints are
// operator-written and small; a constraint whose DFA over the schema
// alphabet exceeds this is rejected at compile time rather than
// risking an exponential table.
const MaxStates = 2048

// Regex is a parsed, validated gap constraint ready to be
// determinized against a schema's edge vocabulary.
type Regex struct {
	src  string
	prog *syntax.Prog
}

// Source returns the constraint text as written.
func (rx *Regex) Source() string { return rx.src }

// Compile parses src with Perl syntax and compiles it to an NFA
// program. Word-boundary assertions are rejected: the gap spelling is
// a token string, not prose, and \b over it would pin semantics to
// regexp's notion of word characters mid-token.
func Compile(src string) (*Regex, error) {
	re, err := syntax.Parse(src, syntax.Perl)
	if err != nil {
		return nil, fmt.Errorf("gap constraint %q: %w", src, err)
	}
	if op := findUnsupported(re); op != "" {
		return nil, fmt.Errorf("gap constraint %q: %s is not supported", src, op)
	}
	prog, err := syntax.Compile(re.Simplify())
	if err != nil {
		return nil, fmt.Errorf("gap constraint %q: %w", src, err)
	}
	return &Regex{src: src, prog: prog}, nil
}

// findUnsupported walks the parse tree for assertions the spelling
// semantics cannot honor.
func findUnsupported(re *syntax.Regexp) string {
	switch re.Op {
	case syntax.OpWordBoundary:
		return `\b`
	case syntax.OpNoWordBoundary:
		return `\B`
	}
	for _, sub := range re.Sub {
		if op := findUnsupported(sub); op != "" {
			return op
		}
	}
	return ""
}

const (
	beginFlags = syntax.EmptyBeginText | syntax.EmptyBeginLine
	endFlags   = syntax.EmptyEndText | syntax.EmptyEndLine
)

// Sentinels of the simulation's memo tables (set IDs are >= 0).
const (
	deadSet    int32 = -1 // the step kills every thread
	unknownSet int32 = -2 // not computed yet
)

// nfa is the NFA simulation behind Determinize. Its states are the
// *pending* sets of the program: sorted sets of program counters just
// past each consumed rune (or the program start). Empty-width
// resolution is deferred to the moment a set is used, because the
// applicable flags (begin of text, interior, end of text) depend on
// how the set is used, not on how it was produced.
//
// Every pending set is interned to a dense ID under a binary key, and
// every (set, begin-flag, rune) step is computed once and memoized — a
// dense row per (set, begin-flag) for ASCII runes, a map beyond.
// Determinize spells each of a schema's hundreds of tokens from every
// DFA state, so after the first few tokens almost every rune is a
// table read.
type nfa struct {
	prog *syntax.Prog

	ids map[string]int32 // binary key of a pending set → set ID
	pcs []uint32         // members of every set, concatenated
	off []int32          // set i is pcs[off[i]:off[i+1]]

	rowOf []int32          // per set*2+begin: offset into rows, or -1
	rows  []int32          // ASCII step rows of utf8.RuneSelf entries
	wide  map[uint64]int32 // other steps, keyed set<<33 | begin<<32 | rune

	// Scratch reused by every step: the epoch-stamped visited marks of
	// resolve (seen[pc] == epoch means visited in this resolution), its
	// work stack and output, and the successor set and its key.
	seen  []uint32
	epoch uint32
	stack []uint32
	live  []uint32
	succ  []uint32
	key   []byte
}

func newNFA(prog *syntax.Prog) *nfa {
	return &nfa{
		prog: prog,
		ids:  map[string]int32{},
		off:  []int32{0},
		seen: make([]uint32, len(prog.Inst)),
	}
}

// set returns the members of pending set id.
func (n *nfa) set(id int32) []uint32 { return n.pcs[n.off[id]:n.off[id+1]] }

// intern returns the ID of the sorted, duplicate-free pending set pcs,
// assigning the next dense ID on first sight.
func (n *nfa) intern(pcs []uint32) int32 {
	n.key = n.key[:0]
	for _, pc := range pcs {
		n.key = binary.LittleEndian.AppendUint32(n.key, pc)
	}
	if id, ok := n.ids[string(n.key)]; ok {
		return id
	}
	id := int32(len(n.off) - 1)
	n.ids[string(n.key)] = id
	n.pcs = append(n.pcs, pcs...)
	n.off = append(n.off, int32(len(n.pcs)))
	n.rowOf = append(n.rowOf, -1, -1)
	return id
}

// resolve expands the pending set through empty-width instructions
// satisfiable under flags, returning (in n.live, in no particular
// order) the rune and match instructions live at this position.
func (n *nfa) resolve(pending []uint32, flags syntax.EmptyOp) []uint32 {
	n.epoch++
	if n.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(n.seen)
		n.epoch = 1
	}
	n.live = n.live[:0]
	n.stack = append(n.stack[:0], pending...)
	for len(n.stack) > 0 {
		pc := n.stack[len(n.stack)-1]
		n.stack = n.stack[:len(n.stack)-1]
		if n.seen[pc] == n.epoch {
			continue
		}
		n.seen[pc] = n.epoch
		i := &n.prog.Inst[pc]
		switch i.Op {
		case syntax.InstFail:
		case syntax.InstAlt, syntax.InstAltMatch:
			n.stack = append(n.stack, i.Arg, i.Out)
		case syntax.InstCapture, syntax.InstNop:
			n.stack = append(n.stack, i.Out)
		case syntax.InstEmptyWidth:
			if syntax.EmptyOp(i.Arg)&^flags == 0 {
				n.stack = append(n.stack, i.Out)
			}
		default: // InstMatch, InstRune*
			n.live = append(n.live, pc)
		}
	}
	return n.live
}

// spell consumes the runes of tok from set id, returning the pending
// set reached, or deadSet. begin marks tok's first rune as the first
// rune of the whole input. Memoized ASCII steps are read inline; a
// miss, or a wider rune, goes through step.
func (n *nfa) spell(id int32, begin bool, tok string) int32 {
	for _, r := range tok {
		next := unknownSet
		if r < utf8.RuneSelf {
			if row := n.rowOf[2*id+flagBit(begin)]; row >= 0 {
				next = n.rows[row+r]
			}
		}
		if next == unknownSet {
			next = n.step(id, begin, r)
		}
		if next == deadSet {
			return deadSet
		}
		id, begin = next, false
	}
	return id
}

func flagBit(begin bool) int32 {
	if begin {
		return 1
	}
	return 0
}

// unknownRow is a fresh ASCII step row: nothing computed yet.
var unknownRow = func() (row [utf8.RuneSelf]int32) {
	for i := range row {
		row[i] = unknownSet
	}
	return row
}()

// step returns the pending set after consuming rune r from set id, or
// deadSet, through the memo: it computes the step on a miss, records
// it, and allocates the (set, begin-flag) ASCII row on first use.
func (n *nfa) step(id int32, begin bool, r rune) int32 {
	if r >= utf8.RuneSelf {
		k := uint64(id)<<33 | uint64(flagBit(begin))<<32 | uint64(uint32(r))
		if next, ok := n.wide[k]; ok {
			return next
		}
		next := n.compute(id, begin, r)
		if n.wide == nil {
			n.wide = map[uint64]int32{}
		}
		n.wide[k] = next
		return next
	}
	slot := 2*id + flagBit(begin)
	if n.rowOf[slot] < 0 {
		n.rowOf[slot] = int32(len(n.rows))
		n.rows = append(n.rows, unknownRow[:]...)
	}
	// compute may intern new sets, growing rowOf but never rows, so
	// the slot's row offset stays valid across the call.
	next := n.compute(id, begin, r)
	n.rows[n.rowOf[slot]+r] = next
	return next
}

// compute runs one uncached step of the simulation.
func (n *nfa) compute(id int32, begin bool, r rune) int32 {
	flags := syntax.EmptyOp(0)
	if begin {
		flags = beginFlags
	}
	n.succ = n.succ[:0]
	for _, pc := range n.resolve(n.set(id), flags) {
		i := &n.prog.Inst[pc]
		switch i.Op {
		case syntax.InstRune, syntax.InstRune1, syntax.InstRuneAny, syntax.InstRuneAnyNotNL:
			if i.MatchRune(r) {
				n.succ = append(n.succ, i.Out)
			}
		}
	}
	if len(n.succ) == 0 {
		return deadSet
	}
	slices.Sort(n.succ)
	n.succ = slices.Compact(n.succ)
	return n.intern(n.succ)
}

// accepting reports whether set id, resolved at end of input, contains
// the match instruction. Determinize asks once per DFA state, and a set
// backs at most one state besides the initial one, so this needs no
// memo.
func (n *nfa) accepting(id int32) bool {
	for _, pc := range n.resolve(n.set(id), endFlags) {
		if n.prog.Inst[pc].Op == syntax.InstMatch {
			return true
		}
	}
	return false
}

// Dead is the Machine transition value meaning "no continuation of
// this gap can ever satisfy the constraint".
const Dead int32 = -1

// Machine is the constraint determinized over a schema's edge
// vocabulary: a dense table indexed by (state, symbol), where symbol
// is a schema relationship ID and the consumed token is that edge's
// contribution to the gap spelling. State 0 is the initial state (no
// edge consumed yet); its outgoing tokens omit the leading connector
// symbol, all other states' tokens include it. The search kernel
// products this table into its traversal: a stay-in-gap move needs a
// live transition, a gap-ending move needs an accepting target.
type Machine struct {
	numSyms int
	next    []int32 // len NumStates*numSyms; Dead when no transition
	accept  []bool  // len NumStates
}

// NumStates returns the number of determinized states.
func (m *Machine) NumStates() int { return len(m.accept) }

// Step returns the state after consuming edge symbol sym in state q,
// or Dead.
func (m *Machine) Step(q int32, sym int) int32 {
	if q == Dead {
		return Dead
	}
	return m.next[int(q)*m.numSyms+sym]
}

// Accepting reports whether ending the gap in state q satisfies the
// constraint. State 0 is never consulted: a gap consumes at least its
// anchor edge.
func (m *Machine) Accepting(q int32) bool { return q != Dead && m.accept[q] }

// Universal reports that the machine accepts every non-empty token
// string over its alphabet: every transition is live and every state
// reachable by at least one edge is accepting. A universal constraint
// (`.*`, `.+`, ...) prunes nothing, and the caller can drop it
// entirely — which is what makes the `.*` degeneracy bit-for-bit
// identical to the unconstrained query.
func (m *Machine) Universal() bool {
	for q := 0; q < m.NumStates(); q++ {
		if q > 0 && !m.accept[q] {
			return false
		}
		for s := 0; s < m.numSyms; s++ {
			if m.next[q*m.numSyms+s] == Dead {
				return false
			}
		}
	}
	return true
}

// Determinize builds the Machine for rx over an edge vocabulary:
// first[sym] is the token an edge contributes as the gap's first
// edge, rest[sym] its token in any later position (connector symbol
// prepended). Only states reachable from the initial state are
// materialized; construction fails if their number exceeds MaxStates.
func Determinize(rx *Regex, first, rest []string) (*Machine, error) {
	if len(first) != len(rest) {
		return nil, fmt.Errorf("gapre: mismatched vocabularies (%d vs %d)", len(first), len(rest))
	}
	numSyms := len(first)
	n := newNFA(rx.prog)
	start := n.intern([]uint32{uint32(rx.prog.Start)})

	// State 0 is the initial state; later states are keyed by pending
	// set. A later state whose set happens to equal the initial one
	// still gets its own ID: its tokens spell the connector prefix, the
	// initial state's do not. stateOf[set] is that later state's ID, 0
	// while the set has none (no later state has ID 0).
	states := []int32{start}
	var stateOf []int32
	m := &Machine{
		numSyms: numSyms,
		next:    make([]int32, numSyms),
		accept:  []bool{n.accepting(start)},
	}
	for q := 0; q < len(states); q++ {
		toks := rest
		if q == 0 {
			toks = first
		}
		for sym, tok := range toks {
			set := n.spell(states[q], q == 0, tok)
			if set == deadSet {
				m.next[q*numSyms+sym] = Dead
				continue
			}
			if int(set) >= len(stateOf) {
				stateOf = append(stateOf, make([]int32, int(set)+1-len(stateOf))...)
			}
			id := stateOf[set]
			if id == 0 {
				if len(states) >= MaxStates {
					return nil, fmt.Errorf("gap constraint %q: automaton exceeds %d states over this schema", rx.src, MaxStates)
				}
				id = int32(len(states))
				stateOf[set] = id
				states = append(states, set)
				m.next = append(m.next, make([]int32, numSyms)...)
				m.accept = append(m.accept, n.accepting(set))
			}
			m.next[q*numSyms+sym] = id
		}
	}
	return m, nil
}

// Ref is the independent reference implementation: the stdlib regexp
// engine full-matching a spelled-out gap fragment. The differential
// oracle post-filters naive enumerations through Ref and compares
// against the kernel's Machine-pruned traversal; agreement means two
// unrelated regex engines blessed the same answer set.
type Ref struct {
	re *regexp.Regexp
}

// NewRef compiles src for full-string matching.
func NewRef(src string) (*Ref, error) {
	re, err := regexp.Compile(`\A(?:` + src + `)\z`)
	if err != nil {
		return nil, fmt.Errorf("gap constraint %q: %w", src, err)
	}
	return &Ref{re: re}, nil
}

// Match reports whether the full fragment spelling matches.
func (f *Ref) Match(spelling string) bool { return f.re.MatchString(spelling) }
