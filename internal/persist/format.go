// Package persist makes serving state a durable artifact instead of a
// cache we pray stays warm: one versioned, checksummed file per schema
// snapshot holding the canonical SDL, the identity tables that pin the
// compiled index's ID assignment, the serialized all-pairs closure
// cells, and generation/byte accounting. Files are written via
// temp-file + fsync + atomic rename, so a crash can never leave a
// half-written snapshot visible under its serving name, and a trailing
// CRC-32C detects the torn temp images a crash mid-write does leave.
//
// On startup the Store runs a small recovery state machine per schema:
//
//	load → verify magic/checksum → validate identity → rebuild index
//	  │           │                      │                  │
//	  │ missing   │ corrupt              │ stale            │ bad cells
//	  ▼           ▼                      ▼                  ▼
//	recompile   quarantine+recompile   quarantine+...     quarantine+...
//
// Every failure edge falls back to SDL recompile — bad durable state
// can cost a rebuild, never a failed boot. Quarantined files are moved
// (not deleted) to <dir>/quarantine for post-mortem, and every edge is
// counted in Stats.
//
// Cells round-trip bit-for-bit: a completion is stored as its concrete
// edge sequence (root class + relationship IDs) and rebuilt through
// pathexpr.FromRels + Resolved.Label() — the exact constructors the
// search kernel itself uses to mint results — so a restored Result is
// reflect.DeepEqual to the one the rebuild would have produced. The ID
// assignment those edge sequences depend on is pinned by the stored
// class and relationship name tables, validated against the live
// schema before any cell is trusted.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"time"

	"pathcomplete/internal/closure"
	"pathcomplete/internal/connector"
	"pathcomplete/internal/core"
	"pathcomplete/internal/label"
	"pathcomplete/internal/pathexpr"
	"pathcomplete/internal/schema"
	"pathcomplete/internal/sdl"
)

// magic opens every snapshot file; the trailing digits are the format
// version, so a version bump reads as a magic mismatch and the old
// file is quarantined rather than misparsed. Version 02 added the
// per-cell Support edge bitmap (the invalidation footprint that
// powers edge-granular closure reuse across reloads).
const magic = "PCSNAP02"

// FileSuffix is the extension of a live snapshot file in the data
// directory.
const FileSuffix = ".snap"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is the in-memory form of one durable snapshot.
type File struct {
	// Name is the registry name the snapshot serves under.
	Name string
	// SDL is the canonical render (sdl.WriteString) of the schema the
	// cells were materialized against. Recovery refuses to restore
	// when the live schema renders differently.
	SDL string
	// Fingerprint captures every engine option that can change answer
	// sets (see Fingerprint); cells computed under different options
	// are stale by definition.
	Fingerprint string
	// Generation is the registry generation at save time. Generations
	// are process-local (the counter restarts at boot), so this is
	// accounting, not identity — identity is SDL + Fingerprint.
	Generation uint64
	// SavedUnix is the save wall-clock (seconds).
	SavedUnix int64
	// Classes pins the ClassID assignment: Classes[id] is the class
	// name the saving process compiled at that ID.
	Classes []string
	// Rels pins the RelID assignment the serialized edge sequences
	// index into.
	Rels []RelRef
	// Closure holds the serialized all-pairs cells, nil when the
	// closure was not ready at save time.
	Closure *ClosureData
}

// RelRef identifies one relationship by (source class name, rel name)
// — the unique key pathexpr resolution itself uses — so a RelID in a
// stored cell can be checked against the live schema's assignment.
type RelRef struct {
	From string
	Name string
}

// ClosureData is the serialized all-pairs closure of one snapshot.
type ClosureData struct {
	// BuildMs is the wall-clock the original search-driven build
	// spent — the denominator of the cold-start speedup.
	BuildMs int64
	// Bytes is the budget reservation the index held at save time.
	Bytes int64
	// Anchors holds the cells, sorted by anchor name.
	Anchors []AnchorCells
}

// AnchorCells is one anchor column of the closure.
type AnchorCells struct {
	Anchor string
	Cells  []Cell
}

// Cell is one materialized (root, anchor) Result, stored as concrete
// edge sequences so reconstruction routes through the same resolution
// code the kernel uses. Nil-versus-empty slice states are preserved
// exactly — bit-for-bit round-tripping is the contract the oracle
// suite locks.
type Cell struct {
	Root           schema.ClassID
	Completions    [][]schema.RelID
	NilCompletions bool
	Best           []label.Key
	NilBest        bool
	Stats          core.Stats
	Truncated      bool
	Aborted        bool
	StopReason     string
	// Support is the cell's invalidation footprint (core.EdgeSet
	// words), preserved so a restored index can seed edge-granular
	// reuse on the next reload exactly like a freshly built one.
	Support    []uint64
	NilSupport bool
}

// Fingerprint renders every core.Options field that can change an
// answer set into a stable string. Two processes whose fingerprints
// differ must not share closure cells: a cell is the answer the
// options produced.
//
// The literal "parallel=0" stays from when the options had a parallel
// root-branch search: it keeps the identity of every remaining
// configuration byte-identical, so files saved before the search was
// removed still restore. A file saved with the parallel search on
// (parallel=N, N >= 2) holds answers only that search gave; it no
// longer matches and is rebuilt.
func Fingerprint(o core.Options) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "e=%d;caution=%d;slack=%t;nopre=%t;nobt=%t;nobu=%t;noet=%t;maxpaths=%d;prefspec=%t;maxcalls=%d;deadline=%d;parallel=0",
		o.E, o.Caution, o.SemLenSlack, o.NoPreemption, o.DisableBestT, o.DisableBestU,
		o.NoEarlyTarget, o.MaxPaths, o.PreferSpecific, o.MaxCalls, int64(o.Deadline))
	if len(o.Exclude) > 0 {
		ids := make([]int, 0, len(o.Exclude))
		for id, on := range o.Exclude {
			if on {
				ids = append(ids, int(id))
			}
		}
		sort.Ints(ids)
		fmt.Fprintf(&sb, ";exclude=%v", ids)
	}
	return sb.String()
}

// Capture builds the durable form of one snapshot served as (name,
// gen): canonical SDL, identity tables, options fingerprint, and — when
// ix is non-nil — its serialized cells.
func Capture(name string, s *schema.Schema, opts core.Options, gen uint64, savedUnix int64, ix *closure.Index) (*File, error) {
	text, err := sdl.WriteString(s)
	if err != nil {
		return nil, fmt.Errorf("persist: render schema %q: %w", name, err)
	}
	f := &File{
		Name:        name,
		SDL:         text,
		Fingerprint: Fingerprint(opts),
		Generation:  gen,
		SavedUnix:   savedUnix,
		Classes:     make([]string, s.NumClasses()),
		Rels:        make([]RelRef, s.NumRels()),
	}
	for _, c := range s.Classes() {
		f.Classes[c.ID] = c.Name
	}
	for _, r := range s.Rels() {
		f.Rels[r.ID] = RelRef{From: s.Class(r.From).Name, Name: r.Name}
	}
	if ix != nil {
		cd := &ClosureData{BuildMs: ix.BuildDuration().Milliseconds(), Bytes: ix.Bytes()}
		var cur *AnchorCells
		ix.Walk(func(anchor string, root schema.ClassID, res *core.Result) {
			if cur == nil || cur.Anchor != anchor {
				cd.Anchors = append(cd.Anchors, AnchorCells{Anchor: anchor})
				cur = &cd.Anchors[len(cd.Anchors)-1]
			}
			cur.Cells = append(cur.Cells, captureCell(root, res))
		})
		f.Closure = cd
	}
	return f, nil
}

func captureCell(root schema.ClassID, res *core.Result) Cell {
	c := Cell{
		Root:           root,
		NilCompletions: res.Completions == nil,
		NilBest:        res.Best == nil,
		Stats:          res.Stats,
		Truncated:      res.Truncated,
		Aborted:        res.Aborted,
		StopReason:     string(res.StopReason),
		NilSupport:     res.Support == nil,
	}
	if res.Support != nil {
		c.Support = append([]uint64{}, res.Support...)
	}
	if res.Completions != nil {
		c.Completions = make([][]schema.RelID, len(res.Completions))
		for i, comp := range res.Completions {
			c.Completions[i] = comp.Path.Rels
		}
	}
	if res.Best != nil {
		c.Best = append([]label.Key{}, res.Best...)
	}
	return c
}

// Validate checks that f is the durable state of exactly the
// (name, schema, options) the caller is about to serve. A non-nil
// error means the file is stale and its cells must not be trusted.
func (f *File) Validate(name string, s *schema.Schema, opts core.Options) error {
	if f.Name != name {
		return fmt.Errorf("persist: stale: file is for schema %q, serving %q", f.Name, name)
	}
	text, err := sdl.WriteString(s)
	if err != nil {
		return fmt.Errorf("persist: render schema %q: %w", name, err)
	}
	if f.SDL != text {
		return fmt.Errorf("persist: stale: schema %q changed since save", name)
	}
	if fp := Fingerprint(opts); f.Fingerprint != fp {
		return fmt.Errorf("persist: stale: engine options changed since save (%s vs %s)", f.Fingerprint, fp)
	}
	if len(f.Classes) != s.NumClasses() || len(f.Rels) != s.NumRels() {
		return fmt.Errorf("persist: stale: schema %q sizes changed (classes %d→%d, rels %d→%d)",
			name, len(f.Classes), s.NumClasses(), len(f.Rels), s.NumRels())
	}
	for id, want := range f.Classes {
		if got := s.Class(schema.ClassID(id)).Name; got != want {
			return fmt.Errorf("persist: stale: class %d is %q, saved as %q", id, got, want)
		}
	}
	for id, want := range f.Rels {
		r := s.Rel(schema.RelID(id))
		if got := (RelRef{From: s.Class(r.From).Name, Name: r.Name}); got != want {
			return fmt.Errorf("persist: stale: rel %d is %s.%s, saved as %s.%s",
				id, got.From, got.Name, want.From, want.Name)
		}
	}
	return nil
}

// RestoreIndex rebuilds the live closure index from the serialized
// cells, bound to the snapshot about to serve as (s, gen). Every edge
// sequence is re-resolved through pathexpr.FromRels — which validates
// chaining against the live schema — and its label recomputed, so the
// restored Results are the ones the rebuild would have produced. Call
// only after Validate succeeded; an error here means the cells are
// corrupt despite the checksum and the file should be quarantined.
func (f *File) RestoreIndex(s *schema.Schema, gen uint64) (*closure.Index, error) {
	if f.Closure == nil {
		return nil, fmt.Errorf("persist: %q has no closure payload", f.Name)
	}
	start := time.Now()
	byAnchor := make(map[string][]*core.Result, len(f.Closure.Anchors))
	for _, ac := range f.Closure.Anchors {
		if _, dup := byAnchor[ac.Anchor]; dup {
			return nil, fmt.Errorf("persist: %q: duplicate anchor %q", f.Name, ac.Anchor)
		}
		cells := make([]*core.Result, s.NumClasses())
		for _, c := range ac.Cells {
			if int(c.Root) < 0 || int(c.Root) >= len(cells) {
				return nil, fmt.Errorf("persist: %q: anchor %q: root %d out of range", f.Name, ac.Anchor, c.Root)
			}
			if cells[c.Root] != nil {
				return nil, fmt.Errorf("persist: %q: anchor %q: duplicate cell for root %d", f.Name, ac.Anchor, c.Root)
			}
			res, err := restoreCell(s, c)
			if err != nil {
				return nil, fmt.Errorf("persist: %q: anchor %q: %w", f.Name, ac.Anchor, err)
			}
			cells[c.Root] = res
		}
		byAnchor[ac.Anchor] = cells
	}
	return closure.Restore(f.Name, gen, byAnchor, time.Since(start)), nil
}

func restoreCell(s *schema.Schema, c Cell) (*core.Result, error) {
	res := &core.Result{
		Stats:      c.Stats,
		Truncated:  c.Truncated,
		Aborted:    c.Aborted,
		StopReason: core.StopReason(c.StopReason),
	}
	if !c.NilCompletions {
		res.Completions = make([]core.Completion, len(c.Completions))
		for i, rels := range c.Completions {
			for _, rid := range rels {
				if int(rid) < 0 || int(rid) >= s.NumRels() {
					return nil, fmt.Errorf("rel %d out of range", rid)
				}
			}
			path, err := pathexpr.FromRels(s, c.Root, rels)
			if err != nil {
				return nil, err
			}
			res.Completions[i] = core.Completion{Path: path, Label: path.Label()}
		}
	}
	if !c.NilBest {
		res.Best = append([]label.Key{}, c.Best...)
	}
	if !c.NilSupport {
		res.Support = core.EdgeSet(append([]uint64{}, c.Support...))
	}
	return res, nil
}

// RestoreImage is the one-pass recovery read: verify checksum, decode
// the header, validate identity against the live (name, schema,
// options), then stream the closure cells straight into a live index.
// It produces exactly the index RestoreIndex(Decode(data)) would —
// the same constructors mint every value, via pathexpr's arena — but
// skips the intermediate Cell materialization and carves Results and
// their backing arrays from chunked blocks. On a 1000-class schema
// that is the difference between a cold start dominated by garbage
// collection and one dominated by reading the file.
//
// The returned File carries the header only (Closure is nil). A nil
// index with a nil error means the file is valid but holds no closure
// payload. Any non-nil error means the image must not be trusted and
// the caller should quarantine it.
func RestoreImage(data []byte, name string, s *schema.Schema, opts core.Options, gen uint64) (*File, *closure.Index, error) {
	d, err := imageCursor(data)
	if err != nil {
		return nil, nil, err
	}
	f := decodeHeader(d)
	if d.err != nil {
		return nil, nil, fmt.Errorf("persist: corrupt payload: %w", d.err)
	}
	if err := f.Validate(name, s, opts); err != nil {
		return nil, nil, err
	}
	if !d.bool() {
		if d.err != nil {
			return nil, nil, fmt.Errorf("persist: corrupt payload: %w", d.err)
		}
		if len(d.buf) != d.off {
			return nil, nil, fmt.Errorf("persist: %d trailing bytes after payload", len(d.buf)-d.off)
		}
		return f, nil, nil
	}
	start := time.Now()
	d.i64() // BuildMs: accounting of the original build, not needed live
	d.i64() // Bytes: the live reservation is recomputed by closure.Restore

	var (
		arena      = pathexpr.NewResolvedArena(s)
		results    []core.Result // chunked: one block allocation per arenaCells
		keys       []label.Key   // chunked backing for Best
		relScratch []schema.RelID
	)
	const cellChunk = 4096
	na := d.count()
	byAnchor := make(map[string][]*core.Result, na)
	for i := 0; i < na && d.err == nil; i++ {
		anchor := d.str()
		if _, dup := byAnchor[anchor]; dup {
			return nil, nil, fmt.Errorf("persist: %q: duplicate anchor %q", name, anchor)
		}
		cells := make([]*core.Result, s.NumClasses())
		ncell := d.count()
		for j := 0; j < ncell && d.err == nil; j++ {
			root := schema.ClassID(d.u64())
			if int(root) < 0 || int(root) >= len(cells) {
				return nil, nil, fmt.Errorf("persist: %q: anchor %q: root %d out of range", name, anchor, root)
			}
			if cells[root] != nil {
				return nil, nil, fmt.Errorf("persist: %q: anchor %q: duplicate cell for root %d", name, anchor, root)
			}
			if cap(results) == len(results) {
				results = make([]core.Result, 0, cellChunk)
			}
			results = append(results, core.Result{})
			res := &results[len(results)-1]

			nilComp := d.bool()
			ncomp := d.count()
			if !nilComp && d.err == nil {
				res.Completions = make([]core.Completion, 0, ncomp)
			}
			for k := 0; k < ncomp && d.err == nil; k++ {
				nrel := d.count()
				relScratch = relScratch[:0]
				for l := 0; l < nrel && d.err == nil; l++ {
					rid := schema.RelID(d.u64())
					if int(rid) < 0 || int(rid) >= s.NumRels() {
						return nil, nil, fmt.Errorf("persist: %q: anchor %q: rel %d out of range", name, anchor, rid)
					}
					relScratch = append(relScratch, rid)
				}
				if d.err != nil {
					break
				}
				path, err := arena.FromRels(root, relScratch)
				if err != nil {
					return nil, nil, fmt.Errorf("persist: %q: anchor %q: %w", name, anchor, err)
				}
				res.Completions = append(res.Completions, core.Completion{Path: path, Label: path.Label()})
			}

			nilBest := d.bool()
			nbest := d.count()
			if !nilBest && d.err == nil {
				if keys == nil || cap(keys)-len(keys) < nbest {
					keys = make([]label.Key, 0, max(cellChunk, nbest))
				}
				off := len(keys)
				keys = keys[:off+nbest]
				res.Best = keys[off : off+nbest : off+nbest]
			}
			for k := 0; k < nbest && d.err == nil; k++ {
				ky := label.Key{Conn: connector.Connector{Kind: connector.Kind(d.byte())}}
				ky.Conn.Possibly = d.bool()
				ky.SemLen = int(d.i64())
				if !nilBest {
					res.Best[k] = ky
				}
			}

			res.Stats.Calls = int(d.i64())
			res.Stats.Offers = int(d.i64())
			res.Stats.PrunedBestT = int(d.i64())
			res.Stats.PrunedBestU = int(d.i64())
			res.Stats.CautionSaves = int(d.i64())
			res.Stats.Enumerated = int(d.i64())
			res.Truncated = d.bool()
			d.bool() // the max_calls byte; StopReason carries it
			res.Aborted = d.bool()
			res.StopReason = core.StopReason(d.str())
			nilSup := d.bool()
			nsup := d.count()
			if !nilSup && d.err == nil {
				res.Support = make(core.EdgeSet, 0, nsup)
			}
			for k := 0; k < nsup && d.err == nil; k++ {
				w := d.u64()
				if !nilSup {
					res.Support = append(res.Support, w)
				}
			}
			if d.err == nil {
				cells[root] = res
			}
		}
		byAnchor[anchor] = cells
	}
	if d.err != nil {
		return nil, nil, fmt.Errorf("persist: corrupt payload: %w", d.err)
	}
	if len(d.buf) != d.off {
		return nil, nil, fmt.Errorf("persist: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return f, closure.Restore(name, gen, byAnchor, time.Since(start)), nil
}

// --- binary codec -----------------------------------------------------
//
// Layout: magic (8 bytes) · payload · CRC-32C of everything before the
// trailer (4 bytes, little-endian). The payload is varint-framed field
// by field in the order the encode methods below write them; there is
// no reflection and no per-field tags — the version baked into the
// magic is the only compatibility story, which is exactly right for a
// cache that can always be rebuilt from SDL.

// Encode renders f into its on-disk byte image.
func (f *File) Encode() []byte {
	e := &enc{buf: make([]byte, 0, 4096)}
	e.raw([]byte(magic))
	e.str(f.Name)
	e.str(f.SDL)
	e.str(f.Fingerprint)
	e.u64(f.Generation)
	e.i64(f.SavedUnix)
	e.u64(uint64(len(f.Classes)))
	for _, c := range f.Classes {
		e.str(c)
	}
	e.u64(uint64(len(f.Rels)))
	for _, r := range f.Rels {
		e.str(r.From)
		e.str(r.Name)
	}
	if f.Closure == nil {
		e.bool(false)
	} else {
		e.bool(true)
		cd := f.Closure
		e.i64(cd.BuildMs)
		e.i64(cd.Bytes)
		e.u64(uint64(len(cd.Anchors)))
		for _, ac := range cd.Anchors {
			e.str(ac.Anchor)
			e.u64(uint64(len(ac.Cells)))
			for _, c := range ac.Cells {
				encodeCell(e, c)
			}
		}
	}
	sum := crc32.Checksum(e.buf, castagnoli)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	return e.buf
}

func encodeCell(e *enc, c Cell) {
	e.u64(uint64(c.Root))
	e.bool(c.NilCompletions)
	e.u64(uint64(len(c.Completions)))
	for _, rels := range c.Completions {
		e.u64(uint64(len(rels)))
		for _, rid := range rels {
			e.u64(uint64(rid))
		}
	}
	e.bool(c.NilBest)
	e.u64(uint64(len(c.Best)))
	for _, k := range c.Best {
		e.byte(byte(k.Conn.Kind))
		e.bool(k.Conn.Possibly)
		e.i64(int64(k.SemLen))
	}
	e.i64(int64(c.Stats.Calls))
	e.i64(int64(c.Stats.Offers))
	e.i64(int64(c.Stats.PrunedBestT))
	e.i64(int64(c.Stats.PrunedBestU))
	e.i64(int64(c.Stats.CautionSaves))
	e.i64(int64(c.Stats.Enumerated))
	e.bool(c.Truncated)
	e.bool(c.StopReason == string(core.StopMaxCalls)) // PCSNAP02's max_calls byte
	e.bool(c.Aborted)
	e.str(c.StopReason)
	e.bool(c.NilSupport)
	e.u64(uint64(len(c.Support)))
	for _, w := range c.Support {
		e.u64(w)
	}
}

// imageCursor verifies the magic and the trailing checksum of one
// on-disk snapshot image — a torn or bit-flipped file fails here
// before any field is interpreted — and returns a cursor positioned at
// the first payload field.
func imageCursor(data []byte) (*dec, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("persist: file truncated (%d bytes)", len(data))
	}
	if got := string(data[:len(magic)]); got != magic {
		if strings.HasPrefix(got, magic[:6]) {
			return nil, fmt.Errorf("persist: unsupported format version %q (want %q)", got, magic)
		}
		return nil, fmt.Errorf("persist: bad magic %q", got)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.LittleEndian.Uint32(trailer), crc32.Checksum(body, castagnoli); want != got {
		return nil, fmt.Errorf("persist: checksum mismatch (file %08x, computed %08x)", want, got)
	}
	return &dec{buf: body[len(magic):]}, nil
}

// decodeHeader parses everything before the closure payload — the
// identity and accounting fields Validate needs — leaving the cursor
// at the closure-present flag.
func decodeHeader(d *dec) *File {
	f := &File{
		Name:        d.str(),
		SDL:         d.str(),
		Fingerprint: d.str(),
		Generation:  d.u64(),
		SavedUnix:   d.i64(),
	}
	nc := d.count()
	f.Classes = make([]string, 0, nc)
	for i := 0; i < nc && d.err == nil; i++ {
		f.Classes = append(f.Classes, d.str())
	}
	nr := d.count()
	f.Rels = make([]RelRef, 0, nr)
	for i := 0; i < nr && d.err == nil; i++ {
		f.Rels = append(f.Rels, RelRef{From: d.str(), Name: d.str()})
	}
	return f
}

// Decode parses one on-disk snapshot image into its full in-memory
// form, cells included. The recovery path does not use this — it
// streams cells straight into the live index (RestoreImage) — but
// inspection tooling and tests want the literal file contents.
func Decode(data []byte) (*File, error) {
	d, err := imageCursor(data)
	if err != nil {
		return nil, err
	}
	f := decodeHeader(d)
	if d.bool() {
		cd := &ClosureData{BuildMs: d.i64(), Bytes: d.i64()}
		na := d.count()
		for i := 0; i < na && d.err == nil; i++ {
			ac := AnchorCells{Anchor: d.str()}
			ncell := d.count()
			for j := 0; j < ncell && d.err == nil; j++ {
				ac.Cells = append(ac.Cells, decodeCell(d))
			}
			cd.Anchors = append(cd.Anchors, ac)
		}
		f.Closure = cd
	}
	if d.err != nil {
		return nil, fmt.Errorf("persist: corrupt payload: %w", d.err)
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("persist: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return f, nil
}

// decodeCell mirrors captureCell's slice shapes exactly — nil versus
// empty-but-allocated is part of the bit-for-bit contract, since the
// engine's own Results distinguish them.
func decodeCell(d *dec) Cell {
	c := Cell{Root: schema.ClassID(d.u64())}
	c.NilCompletions = d.bool()
	ncomp := d.count()
	if !c.NilCompletions && d.err == nil {
		c.Completions = make([][]schema.RelID, 0, ncomp)
	}
	for i := 0; i < ncomp && d.err == nil; i++ {
		nrel := d.count()
		var rels []schema.RelID
		if nrel > 0 {
			rels = make([]schema.RelID, 0, nrel)
		}
		for j := 0; j < nrel && d.err == nil; j++ {
			rels = append(rels, schema.RelID(d.u64()))
		}
		c.Completions = append(c.Completions, rels)
	}
	c.NilBest = d.bool()
	nbest := d.count()
	if !c.NilBest && d.err == nil {
		c.Best = make([]label.Key, 0, nbest)
	}
	for i := 0; i < nbest && d.err == nil; i++ {
		k := label.Key{Conn: connector.Connector{Kind: connector.Kind(d.byte())}}
		k.Conn.Possibly = d.bool()
		k.SemLen = int(d.i64())
		c.Best = append(c.Best, k)
	}
	c.Stats.Calls = int(d.i64())
	c.Stats.Offers = int(d.i64())
	c.Stats.PrunedBestT = int(d.i64())
	c.Stats.PrunedBestU = int(d.i64())
	c.Stats.CautionSaves = int(d.i64())
	c.Stats.Enumerated = int(d.i64())
	c.Truncated = d.bool()
	d.bool() // the max_calls byte; StopReason carries it
	c.Aborted = d.bool()
	c.StopReason = d.str()
	c.NilSupport = d.bool()
	nsup := d.count()
	if !c.NilSupport && d.err == nil {
		c.Support = make([]uint64, 0, nsup)
	}
	for i := 0; i < nsup && d.err == nil; i++ {
		w := d.u64()
		if !c.NilSupport {
			c.Support = append(c.Support, w)
		}
	}
	return c
}

type enc struct{ buf []byte }

func (e *enc) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *enc) byte(b byte)  { e.buf = append(e.buf, b) }
func (e *enc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) str(s string) { e.u64(uint64(len(s))); e.raw([]byte(s)) }
func (e *enc) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// dec is a sticky-error cursor over the payload: after the first
// malformed field every further read returns zero values, and Decode
// reports the recorded error once at the end.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("unexpected end of payload at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

// count reads a collection length, bounding it by the bytes actually
// remaining so a corrupt length can never drive allocation beyond the
// file's own size.
func (d *dec) count() int {
	v := d.u64()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)-d.off) {
		d.fail("collection length %d exceeds remaining payload (%d bytes)", v, len(d.buf)-d.off)
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}
