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

type fpWriter struct{ buf []byte }

var fpPool = sync.Pool{New: func() any { return &fpWriter{buf: make([]byte, 0, 1024)} }}

func (w *fpWriter) byte(b byte)  { w.buf = append(w.buf, b) }
func (w *fpWriter) str(s string) { w.buf = append(w.buf, s...); w.byte(0) }
func (w *fpWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

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

func (w *fpWriter) expr(e ir.Expr) {
	switch ex := e.(type) {
	case *ir.Const:
		w.byte(10)
		w.u64(math.Float64bits(ex.Val))
	case *ir.VarRef:
		w.byte(11)
		w.variable(ex.V)
	case *ir.Index:
		w.byte(12)
		w.variable(ex.V)
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
			w.variable(st.Dst)
			w.expr(st.Src)
		case *ir.Store:
			w.byte(2)
			w.variable(st.Dst)
			w.byte(byte(len(st.Idx)))
			for _, ix := range st.Idx {
				w.expr(ix)
			}
			w.expr(st.Src)
		case *ir.For:
			w.byte(3)
			w.variable(st.IVar)
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
	w.buf = w.buf[:0]
	w.block(stmts)
	fp := sha256.Sum256(w.buf)
	fpPool.Put(w)
	return fp
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
	w.block(prog.Entry.Body)
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
