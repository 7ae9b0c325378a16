package transform

import (
	"math"
	"testing"

	"argo/internal/ir"
	"argo/internal/wcet"
)

// refChunkLoop is the chunkLoop replaced, kept as the reference: k−1
// IndexSetSplit calls, each halving the largest remaining chunk and
// cloning its body twice.
func refChunkLoop(loop *ir.For, k int) []*ir.For {
	chunks := []*ir.For{loop}
	for len(chunks) < k {
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

// TestChunkLoopMatchesRepeatedSplits compares chunkLoop with the
// repeated-split reference for trip counts 1–64, k from 1 to 16 and
// unit, non-unit, negative and fractional steps: the same pieces with
// bit-identical bounds, the label on the first piece only, identical
// region fingerprints, and fresh bodies (or the loop itself, unsplit).
func TestChunkLoopMatchesRepeatedSplits(t *testing.T) {
	p := &ir.Program{Entry: &ir.Func{Name: "f"}}
	i := p.NewVar(&ir.Var{Name: "i", Scalar: true, Rows: 1, Cols: 1})
	m := p.NewVar(&ir.Var{Name: "m", Rows: 1, Cols: 64, Storage: ir.StorageShared})
	bits := func(e ir.Expr) uint64 { return math.Float64bits(e.(*ir.Const).Val) }
	splits := 0
	for _, step := range []float64{1, 2, 3, -1, 0.5, -2.5, 0.1} {
		for trip := 1; trip <= 64; trip++ {
			for k := 1; k <= 16; k++ {
				lo := 1.5
				loop := &ir.For{
					IVar: i, Lo: &ir.Const{Val: lo}, Step: &ir.Const{Val: step},
					Hi: &ir.Const{Val: lo + float64(trip-1)*step}, Trip: trip, Label: "L",
					Body: []ir.Stmt{&ir.Store{Dst: m, Idx: []ir.Expr{&ir.VarRef{V: i}}, Src: &ir.VarRef{V: i}}},
				}
				got, want := chunkLoop(loop, k), refChunkLoop(loop, k)
				if len(got) != len(want) {
					t.Fatalf("step %g trip %d k %d: %d chunks, reference %d", step, trip, k, len(got), len(want))
				}
				if len(want) == 1 {
					if got[0] != loop {
						t.Fatalf("step %g trip %d k %d: an unsplit loop must come back as itself", step, trip, k)
					}
					continue
				}
				splits++
				for c := range want {
					g, w := got[c], want[c]
					if g.Trip != w.Trip || bits(g.Lo) != bits(w.Lo) || bits(g.Step) != bits(w.Step) || bits(g.Hi) != bits(w.Hi) ||
						g.Label != w.Label || g.IVar != w.IVar {
						t.Fatalf("step %g trip %d k %d chunk %d: %s:%s:%s trip %d %q, reference %s:%s:%s trip %d %q",
							step, trip, k, c, ir.ExprString(g.Lo), ir.ExprString(g.Step), ir.ExprString(g.Hi), g.Trip, g.Label,
							ir.ExprString(w.Lo), ir.ExprString(w.Step), ir.ExprString(w.Hi), w.Trip, w.Label)
					}
					if wcet.FingerprintRegion([]ir.Stmt{g}) != wcet.FingerprintRegion([]ir.Stmt{w}) {
						t.Fatalf("step %g trip %d k %d chunk %d: fingerprints differ", step, trip, k, c)
					}
					if g.Body[0] == loop.Body[0] || (c > 0 && g.Body[0] == got[c-1].Body[0]) {
						t.Fatalf("step %g trip %d k %d chunk %d: body not cloned", step, trip, k, c)
					}
				}
			}
		}
	}
	if splits == 0 {
		t.Fatal("no loop was split")
	}
	// Non-constant bounds and a zero step are not split.
	for _, loop := range []*ir.For{
		{IVar: i, Lo: &ir.VarRef{V: i}, Step: &ir.Const{Val: 1}, Hi: &ir.Const{Val: 8}, Trip: 8},
		{IVar: i, Lo: &ir.Const{Val: 1}, Step: &ir.Const{Val: 0}, Hi: &ir.Const{Val: 8}, Trip: 8},
	} {
		if got := chunkLoop(loop, 4); len(got) != 1 || got[0] != loop || len(refChunkLoop(loop, 4)) != 1 {
			t.Fatalf("unsplittable loop split into %d", len(got))
		}
	}
}
