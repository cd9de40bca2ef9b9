package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"pathcomplete/internal/core"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/server"
	"pathcomplete/internal/session"
)

const (
	// naiveMaxClasses gates the definitional enumerator. Its limit
	// bounds the paths it finds, not the simple paths it explores, and
	// on cupid92 the hub cycles keep one query exploring for minutes.
	naiveMaxClasses = 60
	// naiveLimit is the enumeration limit of core.NaiveComplete.
	naiveLimit = 20000
)

// checker is the correctness gate: it compares wire answers with a
// fresh sequential core.New(schema, opts) answer — paths, connectors,
// semantic lengths and order — and checks that every wire completion
// is a consistent acyclic path of the schema with the label it claims.
// Where NaiveComplete finishes within its limit it also counts how
// often the answer equals the definitional one; the paper preset prunes
// heuristically (see core.Exact), so a difference there is reported,
// not failed.
type checker struct {
	opts  core.Options // the server's engine options
	gens  map[uint64]*schema.Schema
	fresh map[freshKey]*core.Completer
	want  map[wantKey][]server.CompletionJSON

	checked, wrong                        int
	naiveAgree, naiveDiffer, naiveSkipped int
	notes                                 []string
}

type freshKey struct {
	s *schema.Schema
	e int
}

type wantKey struct {
	s      *schema.Schema
	expr   string
	e      int
	prefix bool
}

func newChecker(opts core.Options, gens map[uint64]*schema.Schema) *checker {
	return &checker{opts: opts, gens: gens, fresh: map[freshKey]*core.Completer{}, want: map[wantKey][]server.CompletionJSON{}}
}

// options returns the engine options a request with AGG* parameter e
// is answered with.
func (c *checker) options(e int) core.Options {
	opts := c.opts
	if e > 0 {
		opts.E = e
	}
	return opts
}

func (c *checker) fail(format string, args ...any) {
	c.wrong++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checker) completer(s *schema.Schema, e int) *core.Completer {
	opts := c.options(e)
	k := freshKey{s, opts.E}
	if c.fresh[k] == nil {
		c.fresh[k] = core.New(s, opts)
	}
	return c.fresh[k]
}

// envelope is a /v1/complete response.
type envelope struct {
	Data  server.CompleteResponse `json:"data"`
	Error *server.APIError        `json:"error"`
	Meta  server.Meta             `json:"meta"`
}

// rest checks one /v1/complete answer.
func (c *checker) rest(q request, body []byte) {
	c.checked++
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		c.fail("%s: undecodable answer: %v", q.expr, err)
		return
	}
	if env.Error != nil || env.Data.Aborted {
		c.fail("%s: error %v, stop reason %q", q.expr, env.Error, env.Data.StopReason)
		return
	}
	s, ok := c.gens[env.Meta.Generation]
	if !ok {
		c.fail("%s: answered by unknown generation %d", q.expr, env.Meta.Generation)
		return
	}
	want, err := c.expected(s, q.expr, q.e, false)
	if err != nil {
		c.fail("%s: %v", q.expr, err)
		return
	}
	if msg := diff(env.Data.Completions, want); msg != "" {
		c.fail("%s (e=%d, engine %s, cached %v): %s", q.expr, q.e, env.Meta.Engine, env.Meta.CacheHit, msg)
	}
}

// final checks one session final frame against the one-shot prefix
// answer for the same expression.
func (c *checker) final(f session.ServerFrame, gen uint64) {
	c.checked++
	s, ok := c.gens[gen]
	if !ok {
		c.fail("%s: session pinned to unknown generation %d", f.Expr, gen)
		return
	}
	want, err := c.expected(s, f.Expr, 0, true)
	if err != nil {
		c.fail("%s: %v", f.Expr, err)
		return
	}
	got := make([]server.CompletionJSON, len(f.Completions))
	for i, cand := range f.Completions {
		got[i] = server.CompletionJSON{Path: cand.Path, Conn: cand.Conn, SemLen: cand.SemLen}
	}
	if msg := diff(got, want); msg != "" {
		c.fail("session %s: %s", f.Expr, msg)
	}
}

// expected computes (once per key) the fresh sequential answer, checks
// its soundness, and counts its agreement with the enumerator.
func (c *checker) expected(s *schema.Schema, src string, e int, prefix bool) ([]server.CompletionJSON, error) {
	k := wantKey{s, src, e, prefix}
	if w, ok := c.want[k]; ok {
		return w, nil
	}
	expr, err := pathexpr.Parse(src)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	if prefix {
		res, err = c.completer(s, e).CompletePrefixContext(context.Background(), expr)
	} else {
		res, err = c.completer(s, e).CompleteContext(context.Background(), expr)
	}
	if err != nil {
		return nil, err
	}
	want := make([]server.CompletionJSON, len(res.Completions))
	for i, cc := range res.Completions {
		want[i] = server.CompletionJSON{Path: cc.Path.String(), Conn: cc.Label.Conn().String(), SemLen: cc.Label.SemLen()}
		if err := sound(s, expr, want[i], prefix); err != nil {
			return nil, err
		}
	}
	if !prefix {
		c.naive(s, expr, e, want)
	}
	c.want[k] = want
	return want, nil
}

// sound checks that a completion is a valid acyclic path of s,
// consistent with the query, carrying the label it claims.
func sound(s *schema.Schema, query pathexpr.Expr, cj server.CompletionJSON, prefix bool) error {
	pe, err := pathexpr.Parse(cj.Path)
	if err != nil {
		return err
	}
	r, err := pathexpr.Resolve(s, pe)
	if err != nil {
		return err
	}
	if prefix {
		// A prefix answer merges the anchors the typed prefix can still
		// become: check against the anchor this path actually ends on.
		typed := query.Steps[len(query.Steps)-1].Name
		anchor := r.LastName()
		if target := s.Class(r.Target()).Name; !strings.HasPrefix(anchor, typed) {
			anchor = target
		}
		if !strings.HasPrefix(anchor, typed) {
			return fmt.Errorf("completion %s does not end on an anchor with prefix %q", cj.Path, typed)
		}
		query.Steps = append(append([]pathexpr.Step(nil), query.Steps[:len(query.Steps)-1]...), pathexpr.Step{Gap: true, Name: anchor})
	}
	l := r.Label()
	switch {
	case !r.Acyclic():
		return fmt.Errorf("completion %s is cyclic", cj.Path)
	case !r.ConsistentWith(query):
		return fmt.Errorf("completion %s is not consistent with %s", cj.Path, query)
	case l.Conn().String() != cj.Conn || l.SemLen() != cj.SemLen:
		return fmt.Errorf("completion %s is labelled [%s, %d], its path is [%s, %d]", cj.Path, cj.Conn, cj.SemLen, l.Conn(), l.SemLen())
	}
	return nil
}

// naive counts agreement with the definitional enumerator.
func (c *checker) naive(s *schema.Schema, expr pathexpr.Expr, e int, want []server.CompletionJSON) {
	if s.NumUserClasses() > naiveMaxClasses {
		c.naiveSkipped++
		return
	}
	res, err := core.NaiveComplete(s, expr, c.options(e), naiveLimit)
	if errors.Is(err, core.ErrEnumLimit) {
		c.naiveSkipped++
		return
	}
	if err != nil {
		c.fail("%s: the enumerator rejects a query the kernel answered: %v", expr, err)
		return
	}
	got := make([]server.CompletionJSON, len(res.Completions))
	for i, cc := range res.Completions {
		got[i] = server.CompletionJSON{Path: cc.Path.String(), Conn: cc.Label.Conn().String(), SemLen: cc.Label.SemLen()}
	}
	if diff(got, want) == "" {
		c.naiveAgree++
	} else {
		c.naiveDiffer++
	}
}

// diff describes the first difference between two ranked answers, or
// returns "" when they are equal in paths, connectors, semantic
// lengths and order.
func diff(got, want []server.CompletionJSON) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d completions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("completion %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}
