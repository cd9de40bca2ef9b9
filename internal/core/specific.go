package core

import (
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
)

// This file implements Options.PreferSpecific, the third future-work
// item of the paper's conclusions: among completions whose labels tie,
// prefer the reading that travels through more specific concepts. The
// specificity of a class is its Isa depth — the number of proper
// superclasses it has — and the specificity of a path is the average
// over its non-primitive classes, so "the courses I take" (through the
// focused class student) outranks "the courses offered by my
// department" when both carry the same label.

// specificity returns the average Isa depth of the path's
// non-primitive classes.
func specificity(r *pathexpr.Resolved) float64 {
	s := r.Schema
	total, n := 0, 0
	for _, cls := range r.Classes {
		if s.Class(cls).Primitive {
			continue
		}
		total += len(s.Supers(cls))
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// preferSpecific keeps, within each group of label-tied completions,
// only those with maximal specificity (exact ties all survive).
func preferSpecific(cs []Completion) []Completion {
	best := make(map[label.Key]float64)
	for _, c := range cs {
		k := c.Label.Key()
		sp := specificity(c.Path)
		if cur, ok := best[k]; !ok || sp > cur {
			best[k] = sp
		}
	}
	out := cs[:0:0]
	for _, c := range cs {
		if specificity(c.Path) >= best[c.Label.Key()]-1e-12 {
			out = append(out, c)
		}
	}
	return out
}
