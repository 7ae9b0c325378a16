package wcet

import (
	"crypto/sha256"
	"encoding/binary"
	"expvar"
	"math"
	"sync"

	"argo/internal/ir"
	"argo/internal/memo"
)

// Code-level bounds are pure functions of (region content, cost model):
// Structural and Analyze read only the statement structure, the loop
// bounds, and the name/shape/storage of the referenced variables. That
// makes them safe to memoize under a content address — the optimizer's
// candidate ladder and the placement feedback loop re-analyze
// mostly-identical task bodies dozens of times, and only regions a
// transform (or a storage demotion) actually touched miss the cache.
//
// Cache effectiveness is observable via the process-wide expvar counters
// argo_wcet_cache_hits / argo_wcet_cache_misses (served by argod's
// /debug/vars).

// Fingerprint content-addresses a statement region: two regions with
// equal fingerprints are structurally identical, reference variables
// with the same names, shapes, and storage classes, and therefore have
// identical code-level analysis results for any cost model.
type Fingerprint [sha256.Size]byte

// cacheKey includes the engine identity: two engines may legitimately
// produce different bounds for the same (region, model), so no cache
// tier may ever serve one engine's bound as another's.
type cacheKey struct {
	fp     Fingerprint
	m      CostModel
	engine string
}

// boundCacheMax bounds the bound cache so a long-running argod cannot
// grow it without limit; at capacity the least recently used bound is
// evicted (the cache is an accelerator, not a correctness mechanism).
const boundCacheMax = 1 << 18

var boundCache = memo.New[cacheKey, Report](boundCacheMax)

func init() {
	expvar.Publish("argo_wcet_cache_hits", expvar.Func(func() any { return boundCache.Stats().Hits }))
	expvar.Publish("argo_wcet_cache_misses", expvar.Func(func() any { return boundCache.Stats().Misses }))
}

// ResetCache drops all memoized bounds and is intended for tests and
// benchmarks that measure the cold path. The hit/miss counters are
// kept.
func ResetCache() { boundCache.Reset() }

// --- region serialization ---------------------------------------------------

// The fingerprints write a variable's descriptor (name, storage, shape)
// once and refer to it by a number after that, so the hashed bytes stay
// close to the statement structure. The numbering keeps the equality
// relation of writing the full descriptor at every reference: each
// number stands for exactly one descriptor, given unique names in a
// Vars table (NewVar's contract), and a variable without a slot is
// matched to an earlier one by its descriptor.
//
//   - FingerprintProgram writes the table, then every reference as the
//     variable's slot: equal tables give equal slots the same
//     descriptors.
//   - FingerprintRegion has no table. It numbers variables by first
//     occurrence in the region: the first reference writes 0 and the
//     descriptor, later ones the local number. Two regions that write
//     the same descriptor sequence number it alike, so the bound cache
//     hits exactly when it did.

type fpWriter struct {
	buf []byte

	// prog is the program FingerprintProgram encodes (nil for a region).
	prog *ir.Program

	// The region numbering. seen[slot-1] holds gen<<32 | local number
	// for the variables of home numbered in the current region; a new
	// generation per region empties it without clearing. order lists the
	// numbered variables by local number. unslotted records that a
	// variable without a slot in home was numbered, after which a first
	// reference may share an earlier variable's descriptor.
	home      *ir.Program
	gen       uint32
	seen      []uint64
	order     []*ir.Var
	unslotted bool
}

var fpPool = sync.Pool{New: func() any { return &fpWriter{buf: make([]byte, 0, 1024)} }}

func (w *fpWriter) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *fpWriter) str(s string)     { w.buf = append(w.buf, s...); w.byte(0) }
func (w *fpWriter) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *fpWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// sameDescriptor reports whether variable writes a and b alike.
func sameDescriptor(a, b *ir.Var) bool {
	return a.Name == b.Name && a.Storage == b.Storage && a.Scalar == b.Scalar && a.Rows == b.Rows && a.Cols == b.Cols
}

func (w *fpWriter) variable(v *ir.Var) {
	w.str(v.Name)
	w.byte(byte(v.Storage))
	if v.Scalar {
		w.byte(1)
	} else {
		w.byte(0)
	}
	w.u64(uint64(v.Rows))
	w.u64(uint64(v.Cols))
}

// ref writes one reference to v.
func (w *fpWriter) ref(v *ir.Var) {
	if w.prog != nil {
		w.programRef(v)
		return
	}
	owner, slot := v.Slot()
	if owner != nil && w.home == nil {
		w.setHome(owner)
	}
	if owner == nil || owner != w.home || slot > len(w.seen) {
		w.first(v, true)
		return
	}
	if e := w.seen[slot-1]; uint32(e>>32) == w.gen {
		w.uvarint(uint64(uint32(e)))
		return
	}
	w.seen[slot-1] = uint64(w.gen)<<32 | uint64(w.first(v, w.unslotted))
}

// programRef writes v as its slot in w.prog. A variable without one is
// written as the slot of the first table entry with its descriptor, or
// as 0 and the descriptor when there is none.
func (w *fpWriter) programRef(v *ir.Var) {
	owner, slot := v.Slot()
	if owner != w.prog {
		slot = 0
		for i, u := range w.prog.Vars {
			if sameDescriptor(u, v) {
				slot = i + 1
				break
			}
		}
	}
	w.uvarint(uint64(slot))
	if slot == 0 {
		w.variable(v)
	}
}

// first writes the first reference to v in a region and returns its
// local number: with match set, that of an earlier variable with v's
// descriptor if there is one, else a new number written as 0 and the
// descriptor.
func (w *fpWriter) first(v *ir.Var, match bool) uint32 {
	if match {
		for i, u := range w.order {
			if u == v || sameDescriptor(u, v) {
				w.uvarint(uint64(i + 1))
				return uint32(i + 1)
			}
		}
	}
	if owner, _ := v.Slot(); owner == nil || owner != w.home {
		w.unslotted = true
	}
	w.order = append(w.order, v)
	w.uvarint(0)
	w.variable(v)
	return uint32(len(w.order))
}

// setHome makes p the program whose slots index the region numbering.
func (w *fpWriter) setHome(p *ir.Program) {
	w.home = p
	if n := len(p.Vars); n > len(w.seen) {
		w.seen = append(w.seen, make([]uint64, n-len(w.seen))...)
	}
}

// region starts a region numbering: a new generation (clearing the
// table when the counter wraps around), no home, nothing numbered.
func (w *fpWriter) region() {
	if w.gen++; w.gen == 0 {
		clear(w.seen)
		w.gen = 1
	}
	w.home, w.order, w.unslotted = nil, w.order[:0], false
}

func (w *fpWriter) expr(e ir.Expr) {
	switch ex := e.(type) {
	case *ir.Const:
		w.byte(10)
		w.u64(math.Float64bits(ex.Val))
	case *ir.VarRef:
		w.byte(11)
		w.ref(ex.V)
	case *ir.Index:
		w.byte(12)
		w.ref(ex.V)
		w.byte(byte(len(ex.Idx)))
		for _, ix := range ex.Idx {
			w.expr(ix)
		}
	case *ir.Bin:
		w.byte(13)
		w.byte(byte(ex.Op))
		w.expr(ex.X)
		w.expr(ex.Y)
	case *ir.Un:
		w.byte(14)
		w.byte(byte(ex.Op))
		w.expr(ex.X)
	case *ir.Intrinsic:
		w.byte(15)
		w.str(ex.Name)
		w.byte(byte(len(ex.Args)))
		for _, a := range ex.Args {
			w.expr(a)
		}
	}
}

func (w *fpWriter) block(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.AssignScalar:
			w.byte(1)
			w.ref(st.Dst)
			w.expr(st.Src)
		case *ir.Store:
			w.byte(2)
			w.ref(st.Dst)
			w.byte(byte(len(st.Idx)))
			for _, ix := range st.Idx {
				w.expr(ix)
			}
			w.expr(st.Src)
		case *ir.For:
			w.byte(3)
			w.ref(st.IVar)
			w.expr(st.Lo)
			w.expr(st.Step)
			w.expr(st.Hi)
			w.u64(uint64(st.Trip))
			w.block(st.Body)
		case *ir.While:
			w.byte(4)
			w.expr(st.Cond)
			w.u64(uint64(st.Bound))
			w.block(st.Body)
		case *ir.If:
			w.byte(5)
			w.expr(st.Cond)
			w.block(st.Then)
			w.byte(6)
			w.block(st.Else)
		case *ir.Break:
			w.byte(7)
		case *ir.Continue:
			w.byte(8)
		}
	}
	w.byte(0) // end of block
}

// FingerprintRegion computes the content address of a statement region.
// Callers analyzing one region under several cost models should compute
// the fingerprint once and pass it to AnalyzeFP.
func FingerprintRegion(stmts []ir.Stmt) Fingerprint {
	w := fpPool.Get().(*fpWriter)
	fp := w.fingerprintRegion(stmts)
	fpPool.Put(w)
	return fp
}

func (w *fpWriter) fingerprintRegion(stmts []ir.Stmt) Fingerprint {
	w.buf = w.buf[:0]
	w.region()
	w.block(stmts)
	w.home = nil
	clear(w.order) // drop the references for the pool's sake
	return sha256.Sum256(w.buf)
}

// FingerprintProgram computes the content address of a whole lowered
// program: the entry signature, the full variable table (names, shapes,
// storage classes, param/result roles, registration order — order
// matters because buffer placement assigns addresses in table order),
// the entry body, and the temporary-name counter (generated names in
// later rewrites depend on it). Two programs with equal fingerprints
// behave identically under every downstream stage — transformation,
// task extraction, scheduling, WCET analysis, code generation — which
// is what makes whole-program fingerprints sound pass-cache keys.
func FingerprintProgram(prog *ir.Program) Fingerprint {
	w := fpPool.Get().(*fpWriter)
	w.buf = w.buf[:0]
	w.str(prog.Entry.Name)
	w.u64(uint64(prog.TempSeq()))
	w.u64(uint64(len(prog.Vars)))
	for _, v := range prog.Vars {
		w.variable(v)
		flags := byte(0)
		if v.Param {
			flags |= 1
		}
		if v.Result {
			flags |= 2
		}
		w.byte(flags)
	}
	w.u64(uint64(len(prog.Entry.Params)))
	for _, v := range prog.Entry.Params {
		w.str(v.Name)
	}
	w.u64(uint64(len(prog.Entry.Results)))
	for _, v := range prog.Entry.Results {
		w.str(v.Name)
	}
	w.prog = prog
	w.block(prog.Entry.Body)
	w.prog = nil
	fp := sha256.Sum256(w.buf)
	fpPool.Put(w)
	return fp
}

// AnalyzeMemo is e.Analyze backed by the process-wide content-addressed
// bound cache. A nil engine means the default IPET engine.
func AnalyzeMemo(e Engine, stmts []ir.Stmt, m CostModel) Report {
	return AnalyzeFP(e, FingerprintRegion(stmts), stmts, m)
}

// AnalyzeFP is AnalyzeMemo for callers that already hold the region's
// fingerprint.
func AnalyzeFP(e Engine, fp Fingerprint, stmts []ir.Stmt, m CostModel) Report {
	if e == nil {
		e = IPETEngine
	}
	key := cacheKey{fp: fp, m: m, engine: e.Name()}
	if rep, ok := boundCache.Get(key); ok {
		return rep
	}
	rep := e.Analyze(stmts, m)
	boundCache.Put(key, rep)
	return rep
}

// CacheCounters returns the cumulative hit/miss counts of the bound
// cache (also exported as expvars argo_wcet_cache_{hits,misses}).
func CacheCounters() (hits, misses int64) {
	st := boundCache.Stats()
	return st.Hits, st.Misses
}
