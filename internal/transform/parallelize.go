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
	if len(uses.MatWrites) == 0 {
		return false
	}
	defined := ir.DefinedBeforeUse(loop.Body)
	for v := range uses.ScalWrite {
		if v != loop.IVar && !defined[v] {
			return false
		}
	}
	return true
}

// chunkLoop splits loop into up to k nearly equal index-set pieces.
func chunkLoop(loop *ir.For, k int) []*ir.For {
	chunks := []*ir.For{loop}
	for len(chunks) < k {
		// Split the largest remaining chunk.
		bi, bt := -1, 0
		for i, c := range chunks {
			if c.Trip > bt {
				bi, bt = i, c.Trip
			}
		}
		if bt < 2 {
			break
		}
		parts, ok := IndexSetSplit(chunks[bi], chunks[bi].Trip/2)
		if !ok {
			break
		}
		chunks = append(chunks[:bi], append([]*ir.For{parts[0], parts[1]}, chunks[bi+1:]...)...)
	}
	return chunks
}
