package core

import (
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
	pat, err := compile(c.s, e)
	if err != nil {
		return err
	}
	for i := range classGaps {
		seg := &pat.segs[i]
		if seg.kind != segGapName || seg.class == schema.NoClass {
			return fmt.Errorf("%v: step %d is not a gap anchored on a class", e, i)
		}
		seg.kind, seg.name = segGapClass, ""
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
