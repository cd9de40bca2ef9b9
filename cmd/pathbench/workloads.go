package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"pathcomplete/internal/core"
	"pathcomplete/internal/cupid"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
	"pathcomplete/internal/server"
)

// schemaSpec is a generated schema and the name it is served under.
type schemaSpec struct {
	name string
	cfg  cupid.Config
}

var (
	// cupid92 is the paper's CUPID scale: 92 classes, 364 relationships.
	cupid92 = schemaSpec{"cupid92", cupid.DefaultConfig()}
	// cupid48 is the same generator at a scale whose closure builds in
	// well under a second, so set-up can be repeated within one run.
	cupid48 = schemaSpec{"cupid48", cupid.Config{Seed: 1994, Classes: 48, RelPairs: 96, Hubs: 2, HubFanout: 6}}
	// cupid32 is small enough that a full rebuild under the exact preset
	// takes a tenth of a second; it replaces every schema in the smoke
	// test.
	cupid32 = schemaSpec{"cupid32", cupid.Config{Seed: 1994, Classes: 32, RelPairs: 64, Hubs: 2, HubFanout: 4}}
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name    string
	schema  schemaSpec
	opts    core.Options // the engine preset
	closure bool         // warm the all-pairs closure index
	persist bool         // keep durable snapshots; set-up restores from them
	reloads bool         // toggle one assoc line and reload once a second
	// sessions selects open-loop keystroke sessions; otherwise the
	// workload is closed-loop REST traffic drawn from mix.
	sessions bool
	mix      func(g *gen) func() request
}

// The workloads; README.md says why each exists.
var workloads = []*workload{
	{
		// The closure and the memo answer nearly every query, so the cost
		// is HTTP, middleware and encoding.
		name:    "typeahead",
		schema:  cupid48,
		opts:    core.Paper(),
		closure: true,
		mix:     typeaheadMix,
	},
	{
		// Every query misses the memo and runs the kernel.
		name:   "cold_search",
		schema: cupid92,
		opts:   core.Paper(),
		mix:    coldMix,
	},
	{
		// Keystrokes reach the kernel through frontier reuse and
		// cancellation rather than one-shot searches.
		name:     "sessions",
		schema:   cupid92,
		opts:     core.Paper(),
		sessions: true,
	},
	{
		// Reads next to reloads: closure cell reuse, full rebuilds, kernel
		// fallback and persist saves. On cupid48 an exact rebuild under
		// load outlasts the one-second reload period, so the share of
		// reads served by the kernel, and with it throughput, swung with
		// the machine's speed; on cupid32 rebuilds take a tenth of it.
		name:   "reload",
		schema: cupid32,
		// Edge-granular closure reuse is sound for the exact preset,
		// which its argument and tests assume. Under the paper preset a
		// reused cell can differ from a fresh search, which the
		// correctness gate reports, so this workload cannot run it.
		opts:    core.Exact(),
		closure: true,
		persist: true,
		reloads: true,
		mix:     reloadMix,
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

const (
	// clients is the number of closed-loop clients, sessions, and
	// client connections, sized for a two-core machine.
	clients = 2
	// ringSize is the number of requests generated per REST client; a
	// client that sends more cycles through them.
	ringSize = 1 << 15
	// sampleEvery selects the requests the correctness gate checks.
	sampleEvery = 64
	// fixedSeed seeds the inputs every run shares whatever its seed: the
	// probe set, and the walks the sessions type in the window.
	fixedSeed = 7
)

// request is one generated /v1/complete request.
type request struct {
	expr string
	e    int
	body []byte
}

func newRequest(expr string, e int) request {
	body, err := json.Marshal(server.CompleteRequest{Expr: expr, E: e})
	if err != nil {
		panic(err) // a struct of a string and an int always marshals
	}
	return request{expr: expr, e: e, body: body}
}

// inputs is everything a workload sends, generated from the seed
// before the server starts.
type inputs struct {
	spec schemaSpec
	sdl  string         // the served schema text
	s    *schema.Schema // sdl parsed, as the server parses it
	// dropped is, for reload, the schema text without the toggled assoc
	// line, and droppedS its parse.
	dropped  string
	droppedS *schema.Schema

	rings   [][]request // REST: one ring per client
	scripts [][]string  // sessions: one keystroke script per session
	probes  []request   // sent once after the window, always checked
	offset  int         // index mod sampleEvery of the checked requests
	sha     string
}

// makeInputs generates a workload's inputs for a run with cfg's seed,
// warm-up and window. The same settings give the same inputs; sha
// digests them.
func makeInputs(w *workload, cfg config) (*inputs, error) {
	spec := w.schema
	if cfg.small {
		spec = cupid32
	}
	wl, err := cupid.Generate(spec.cfg)
	if err != nil {
		return nil, err
	}
	text, err := sdl.WriteString(wl.Schema)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, sdl: text}
	if in.s, err = sdl.ParseString(text); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	in.offset = rng.Intn(sampleEvery)
	avoid := map[string]bool{}
	if w.reloads {
		// Reads never name the toggled edges: while the line is dropped
		// such a query would be a 422, not a read.
		var lines []string
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, "assoc ") {
				lines = append(lines, l)
			}
		}
		if len(lines) == 0 {
			return nil, fmt.Errorf("%s: no assoc line to toggle", spec.name)
		}
		line := lines[rng.Intn(len(lines))]
		f := strings.Fields(line)
		avoid[f[3]], avoid[f[4]] = true, true
		in.dropped = strings.Replace(text, line+"\n", "", 1)
		if in.droppedS, err = sdl.ParseString(in.dropped); err != nil {
			return nil, err
		}
	}
	g := newGen(in.s, rng, avoid)
	if w.sessions {
		// The window's p99 is set by its twenty or so slowest keystrokes,
		// the first letters of the costliest walks; were the walks drawn
		// from the seed, which costly walks a run got would move it by a
		// fifth. So the window types one fixed set of walks, and the seed
		// draws the warm-up's walks and the window's order.
		for i := 0; i < clients; i++ {
			warm, total := keysBefore(i, cfg.warmup), keysBefore(i, cfg.warmup+cfg.window)
			fixed := newGen(in.s, rand.New(rand.NewSource(fixedSeed+int64(i))), avoid)
			in.scripts = append(in.scripts, append(g.script(warm, rng), fixed.script(total-warm, rng)...))
		}
	} else {
		next := w.mix(g)
		for i := 0; i < clients; i++ {
			ring := make([]request, ringSize)
			for j := range ring {
				ring[j] = next()
			}
			in.rings = append(in.rings, ring)
		}
	}
	// The probe set is fixed: its generator does not see the seed.
	in.probes = newGen(in.s, rand.New(rand.NewSource(fixedSeed)), avoid).probes()
	in.sha = in.digest(w.name)
	return in, nil
}

func (in *inputs) digest(name string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %s %d\n%s", name, in.spec.name, in.offset, in.dropped)
	for _, ring := range in.rings {
		for _, q := range ring {
			fmt.Fprintf(h, "%s\x00%d\n", q.expr, q.e)
		}
	}
	for _, script := range in.scripts {
		for _, k := range script {
			fmt.Fprintf(h, "%s\n", k)
		}
	}
	for _, q := range in.probes {
		fmt.Fprintf(h, "%s\x00%d\n", q.expr, q.e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gen draws queries from random acyclic walks over the schema, so most
// of them have answers, as a user's queries would.
type gen struct {
	s     *schema.Schema
	rng   *rand.Rand
	roots []string
	avoid map[string]bool
}

func newGen(s *schema.Schema, rng *rand.Rand, avoid map[string]bool) *gen {
	g := &gen{s: s, rng: rng, avoid: avoid}
	for _, c := range s.Classes() {
		if !c.Primitive {
			g.roots = append(g.roots, c.Name)
		}
	}
	return g
}

// maxWalk bounds the length of a generated walk.
const maxWalk = 6

// walk returns a random root and a random simple path from it of 1 to
// maxWalk edges, never using an avoided relationship name.
func (g *gen) walk() (string, []schema.Rel) {
	for {
		root := g.s.MustClass(g.roots[g.rng.Intn(len(g.roots))])
		want := 1 + g.rng.Intn(maxWalk)
		seen := map[schema.ClassID]bool{root.ID: true}
		var path []schema.Rel
		for cur := root.ID; len(path) < want; {
			var next []schema.Rel
			for _, id := range g.s.Out(cur) {
				if r := g.s.Rel(id); !seen[r.To] && !g.avoid[r.Name] {
					next = append(next, r)
				}
			}
			if len(next) == 0 {
				break
			}
			r := next[g.rng.Intn(len(next))]
			path = append(path, r)
			seen[r.To] = true
			cur = r.To
		}
		if len(path) > 0 {
			return root.Name, path
		}
	}
}

func (g *gen) single() string {
	root, p := g.walk()
	return root + "~" + p[len(p)-1].Name
}

func (g *gen) twoGap() string {
	for {
		root, p := g.walk()
		if len(p) >= 2 {
			return root + "~" + p[g.rng.Intn(len(p)-1)].Name + "~" + p[len(p)-1].Name
		}
	}
}

// constrained asks for paths whose gap starts with the walk's first
// edge, or — degenerate — for any path, which must answer exactly like
// the unconstrained query.
func (g *gen) constrained(degenerate bool) string {
	root, p := g.walk()
	re := ".*"
	if !degenerate {
		re = p[0].Name + ".*"
	}
	return fmt.Sprintf("%s~(%s)~%s", root, re, p[len(p)-1].Name)
}

// predicate anchors a gap on a string attribute and pushes down a
// predicate no value is excluded by; the literal varies so every
// predicate query is its own memo key.
func (g *gen) predicate() string {
	for tries := 0; ; tries++ {
		if tries == 1<<16 {
			panic(fmt.Sprintf("schema %s: no walk ends at a string attribute", g.s.Name()))
		}
		root, p := g.walk()
		if last := p[len(p)-1]; g.s.Class(last.To).Name == "C" {
			return fmt.Sprintf(`%s~%s[self != "zz%d"]`, root, last.Name, g.rng.Intn(1_000_000_000))
		}
	}
}

// cells lists every single-gap query root~anchor the closure
// materializes, in a seeded shuffle.
func (g *gen) cells() []string {
	var out []string
	for _, root := range g.roots {
		for _, a := range core.GapAnchors(g.s) {
			if !g.avoid[a] {
				out = append(out, root+"~"+a)
			}
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfV offsets the typeahead Zipf distributions' head: with the plain
// Zipf(1.1) ten cells would take 40% of the traffic, and whether those
// happen to have long answers would move the encoding cost from seed
// to seed. With the offset the top thousand cells take two thirds.
const zipfV = 64

// typeaheadMix: 85% single-gap queries, Zipf(1.1) over the shuffled
// cells; 15% two-gap queries, Zipf over a pool small enough to stay in
// the 4096-entry memo.
func typeaheadMix(g *gen) func() request {
	cells := g.cells()
	seen := map[string]bool{}
	var pool []string
	for tries := 0; len(pool) < 512 && tries < 1<<16; tries++ {
		if q := g.twoGap(); !seen[q] {
			seen[q] = true
			pool = append(pool, q)
		}
	}
	zc := rand.NewZipf(g.rng, 1.1, zipfV, uint64(len(cells)-1))
	zp := rand.NewZipf(g.rng, 1.1, zipfV, uint64(len(pool)-1))
	return func() request {
		if g.rng.Float64() < 0.15 {
			return newRequest(pool[zp.Uint64()], 0)
		}
		return newRequest(cells[zc.Uint64()], 0)
	}
}

// coldMix draws from a key space far larger than the memo: 40%
// two-gap, 20% single-gap with e in {2,3}, 25% regex-constrained (a
// third of them the degenerate (.*)), 15% predicates.
func coldMix(g *gen) func() request {
	return func() request {
		switch x := g.rng.Float64(); {
		case x < 0.40:
			return newRequest(g.twoGap(), 0)
		case x < 0.60:
			return newRequest(g.single(), 2+g.rng.Intn(2))
		case x < 0.85:
			return newRequest(g.constrained(g.rng.Intn(3) == 0), 0)
		default:
			return newRequest(g.predicate(), 0)
		}
	}
}

// reloadMix reads uniformly over the cells, so kernel fallbacks during
// a rebuild are not absorbed by the memo.
func reloadMix(g *gen) func() request {
	cells := g.cells()
	return func() request { return newRequest(cells[g.rng.Intn(len(cells))], 0) }
}

// script returns n keystrokes of a session: walks g draws, in an order
// order shuffles. Each walk pastes root~ with the first character of
// its anchor and types the rest one character at a time.
func (g *gen) script(n int, order *rand.Rand) []string {
	var walks [][]string
	for k := 0; k < n; {
		root, p := g.walk()
		anchor := p[len(p)-1].Name
		keys := make([]string, len(anchor))
		for i := range keys {
			keys[i] = root + "~" + anchor[:i+1]
		}
		walks = append(walks, keys)
		k += len(keys)
	}
	order.Shuffle(len(walks), func(i, j int) { walks[i], walks[j] = walks[j], walks[i] })
	var out []string
	for _, keys := range walks {
		out = append(out, keys...)
	}
	return out[:n]
}

// probes is the fixed set sent after the window: every query shape, so
// every workload exercises the kernel, core.New and gapre at least a
// few times.
func (g *gen) probes() []request {
	var out []request
	for i := 0; i < 4; i++ {
		out = append(out, newRequest(g.single(), 0))
	}
	for i := 0; i < 2; i++ {
		out = append(out, newRequest(g.twoGap(), 0))
		out = append(out, newRequest(g.single(), 2+i))
		out = append(out, newRequest(g.constrained(false), 0))
		out = append(out, newRequest(g.predicate(), 0))
	}
	return append(out, newRequest(g.constrained(true), 0))
}
