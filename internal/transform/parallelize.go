package transform

import (
	"argo/internal/ir"
)

// ParallelizeLoops chunks top-level for loops into up to k index-set
// pieces (the data-parallel task extraction step): each chunk becomes a
// separate task for the HTG, and the interval dependence test recognizes
// chunks writing disjoint array regions as independent.
//
// Index-set splitting is always semantics-preserving (chunks stay in
// original order); chunking is *applied* only where it can pay off:
//
//   - constant bounds and at least 2 iterations per chunk,
//   - no loose break/continue,
//   - every scalar the body writes is iteration-private
//     (defined-before-use), so chunks don't serialize on accumulators.
//
// Returns the number of loops chunked.
func ParallelizeLoops(prog *ir.Program, k int) int {
	if k < 2 {
		return 0
	}
	n := 0
	var out []ir.Stmt
	for _, s := range prog.Entry.Body {
		loop, ok := s.(*ir.For)
		if !ok {
			out = append(out, s)
			continue
		}
		// Never create chunks below 2 iterations; small loops get fewer
		// pieces than requested.
		kEff := k
		if loop.Trip/2 < kEff {
			kEff = loop.Trip / 2
		}
		if kEff < 2 || !chunkable(loop, kEff) {
			out = append(out, s)
			continue
		}
		chunks := chunkLoop(loop, kEff)
		if len(chunks) < 2 {
			out = append(out, s)
			continue
		}
		n++
		for _, c := range chunks {
			out = append(out, c)
		}
	}
	prog.Entry.Body = out
	return n
}

// chunkable decides whether chunking loop into k pieces is worthwhile.
func chunkable(loop *ir.For, k int) bool {
	if loop.Trip < 2*k {
		return false
	}
	if _, _, _, ok := constBounds(loop); !ok {
		return false
	}
	if hasLooseJumps(loop.Body) {
		return false
	}
	uses := ir.ComputeUses(loop.Body)
	// The body must write at least one matrix (otherwise it is a pure
	// scalar reduction; chunks would serialize on the accumulator).
	if uses.MatWrites().Empty() {
		return false
	}
	defined := ir.DefinedBeforeUse(loop.Body)
	return uses.ScalWrite().Each(func(v *ir.Var) bool { return v == loop.IVar || defined.Has(v) })
}

// chunkLoop splits loop into up to k nearly equal index-set pieces: it
// halves the largest remaining piece (the first of equal ones) until
// there are k, as k−1 IndexSetSplit calls would, but replays the
// halving on trip counts and bounds only and clones the body once per
// final piece. Each piece's bounds come from the same expressions
// IndexSetSplit evaluates, and only the first piece keeps the loop's
// label. Loops that cannot be split come back as the loop itself.
func chunkLoop(loop *ir.For, k int) []*ir.For {
	lo, step, hi, ok := constBounds(loop)
	if !ok || step == 0 {
		return []*ir.For{loop}
	}
	type piece struct {
		lo, hi float64
		trip   int
	}
	pieces := make([]piece, 1, max(k, 1))
	pieces[0] = piece{lo, hi, loop.Trip}
	for len(pieces) < k {
		bi, bt := -1, 0
		for i, c := range pieces {
			if c.trip > bt {
				bi, bt = i, c.trip
			}
		}
		if bt < 2 {
			break
		}
		c, m := pieces[bi], bt/2
		pieces = append(pieces, piece{})
		copy(pieces[bi+2:], pieces[bi+1:])
		pieces[bi] = piece{c.lo, c.lo + float64(m-1)*step, m}
		pieces[bi+1] = piece{c.lo + float64(m)*step, c.hi, c.trip - m}
	}
	if len(pieces) == 1 {
		return []*ir.For{loop}
	}
	chunks := make([]*ir.For, len(pieces))
	for i, c := range pieces {
		chunks[i] = &ir.For{
			IVar: loop.IVar, Lo: &ir.Const{Val: c.lo}, Step: &ir.Const{Val: step},
			Hi: &ir.Const{Val: c.hi}, Trip: c.trip, Body: ir.CloneStmts(loop.Body),
		}
	}
	chunks[0].Label = loop.Label
	return chunks
}
