package core

import (
	"context"
	"fmt"

	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
)

// CheckCompiledRows compiles e on c and compares the compiled moves of
// every (class, segment) state with what dynTransitions derives, in
// content and order. The gap steps whose indexes classGaps lists are
// compiled in the class-anchored form of CompleteToClass, their Name
// naming the target class. It returns the first difference, or nil.
func CheckCompiledRows(c *Completer, e pathexpr.Expr, classGaps map[int]bool) error {
	pat, err := compileClassGaps(c.s, e, classGaps)
	if err != nil {
		return err
	}
	cp := c.compiledFor(pat)
	for v := 0; v < c.s.NumClasses(); v++ {
		for seg := range pat.segs {
			gotC, gotK := cp.moves(schema.ClassID(v), seg)
			wantC, wantK := dynTransitions(c.s, pat, &c.opts, schema.ClassID(v), seg)
			if !sameMoves(gotC, wantC) || !sameMoves(gotK, wantK) {
				return fmt.Errorf("%v (class gaps %v): state (%s, segment %d): compiled comps %v kids %v, dynTransitions comps %v kids %v",
					e, classGaps, c.s.Class(schema.ClassID(v)).Name, seg, gotC, gotK, wantC, wantK)
			}
		}
	}
	return nil
}

func sameMoves(a, b []trans) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compileClassGaps compiles e, turning the gap steps whose indexes
// classGaps lists into the class-anchored form of CompleteToClass.
func compileClassGaps(s *schema.Schema, e pathexpr.Expr, classGaps map[int]bool) (*pattern, error) {
	pat, err := compile(s, e)
	if err != nil {
		return nil, err
	}
	for i := range classGaps {
		seg := &pat.segs[i]
		if seg.kind != segGapName || seg.class == schema.NoClass {
			return nil, fmt.Errorf("%v: step %d is not a gap anchored on a class", e, i)
		}
		seg.kind, seg.name = segGapClass, ""
	}
	return pat, nil
}

// SearchBothWays compiles e on c (classGaps as in CheckCompiledRows)
// and answers it twice under ctx: through the Completer's own dispatch
// (checked), and through the same engines with the reachability check
// bypassed (searched). answered reports whether the check answered the
// dispatch without a traversal.
func SearchBothWays(ctx context.Context, c *Completer, e pathexpr.Expr, classGaps map[int]bool) (checked, searched *Result, answered bool, err error) {
	pat, err := compileClassGaps(c.s, e, classGaps)
	if err != nil {
		return nil, nil, false, err
	}
	checked = c.search(ctx, pat, nil)
	en := c.getEngineFor(ctx, pat, c.compiledFor(pat))
	answered = !en.canComplete()
	searched = en.run()
	c.putEngine(en)
	return checked, searched, answered, nil
}

// The naive reference in its steps, for the differential harness,
// which enumerates Ψ once per base query and derives the naive answer
// of every query over that base from it.

// NaivePsi returns Ψ of e's unannotated base (e with every gap
// constraint and predicate removed) under opts.Exclude: every acyclic
// complete path expression consistent with it. limit > 0 bounds the
// enumeration (ErrEnumLimit on overflow).
func NaivePsi(s *schema.Schema, e pathexpr.Expr, opts Options, limit int) ([]*pathexpr.Resolved, error) {
	pat, err := compile(s, e)
	if err != nil {
		return nil, err
	}
	return enumerate(s, pat.stripped(), opts, limit)
}

// NaiveFilter returns the members of psi, the Ψ of e's base, that
// satisfy e's gap constraints and predicates, without changing psi.
func NaiveFilter(s *schema.Schema, e pathexpr.Expr, psi []*pathexpr.Resolved) ([]*pathexpr.Resolved, error) {
	pat, err := compile(s, e)
	if err != nil {
		return nil, err
	}
	return filterAnnotated(s, pat, psi)
}

// NaiveSelect returns the definitional answer over psi under opts:
// AGG*, Support, preemption, specificity and order.
func NaiveSelect(s *schema.Schema, psi []*pathexpr.Resolved, opts Options) *Result {
	return naiveSelect(s, psi, opts)
}

// The random schema shapes, their gap anchors and the comparison
// helpers of the package's own tests, for the external test package.
type ResultView = resultView

var (
	RandSchema  = randSchema
	RandAnchors = anchors
	View        = view
	KeysSorted  = keysSorted
)
