package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/ir"
	"argo/internal/sched"
)

// TestTraceCacheWarmRunsIdentical runs the same inputs through a warm
// program (trace cache populated by earlier seeds) and through per-seed
// fresh programs (every run meters cold), and requires bit-identical
// reports: the cache must be invisible in every observable output.
func TestTraceCacheWarmRunsIdentical(t *testing.T) {
	platform := adl.XentiumPlatform(3)
	spec := ir.ArgSpec{Rows: 8, Cols: 8}
	warm := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
	for seed := int64(0); seed < 5; seed++ {
		args := [][]float64{randImg(64, seed)}
		wantProg := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
		want, err := Run(wantProg, args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(warm, args)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: warm-cache report differs from cold report:\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}

// TestTraceCacheInvariance checks the gate itself: the straight-line
// pipeline caches every task, while the branchy kernel (data-dependent
// if) caches none — and cached traces equal freshly metered ones.
func TestTraceCacheInvariance(t *testing.T) {
	platform := adl.XentiumPlatform(3)
	spec := ir.ArgSpec{Rows: 8, Cols: 8}

	p := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
	c := cacheFor(p)
	for tid, inv := range c.invariant {
		if !inv {
			t.Errorf("pipeline task %d: want invariant trace", tid)
		}
	}

	b := buildPipeline(t, branchySrc, platform, sched.ListOblivious, false, spec)
	cb := cacheFor(b)
	anyVariant := false
	for _, inv := range cb.invariant {
		if !inv {
			anyVariant = true
		}
	}
	if !anyVariant {
		t.Error("branchy program: want at least one variant task")
	}

	// Populate the cache, then independently re-meter every invariant
	// task and compare segment for segment.
	if _, err := Run(p, [][]float64{randImg(64, 1)}); err != nil {
		t.Fatal(err)
	}
	fresh, _, err := MeterTasks(p, [][]float64{randImg(64, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for tid, tr := range fresh {
		if cached := c.traces[tid]; cached != nil && !reflect.DeepEqual(cached, tr) {
			t.Errorf("task %d: cached trace differs from fresh metering\n cached: %v\n  fresh: %v", tid, cached, tr)
		}
	}

	// Counter sanity: a second warm run of the pipeline only hits.
	h0, m0 := TraceCacheCounters()
	if _, err := Run(p, [][]float64{randImg(64, 3)}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := TraceCacheCounters()
	if h1 <= h0 {
		t.Errorf("warm run recorded no trace cache hits (%d -> %d)", h0, h1)
	}
	if m1 != m0 {
		t.Errorf("warm run of fully-invariant program recorded misses (%d -> %d)", m0, m1)
	}
}

// TestVMCompileErrorFailsRun: a program the VM cannot compile fails its
// VM runs with the compile error, which the program's cache slot keeps,
// so the program compiles once and never runs on the tree walker.
func TestVMCompileErrorFailsRun(t *testing.T) {
	p := buildPipeline(t, pipelineSrc, adl.XentiumPlatform(3), sched.ListOblivious, false, ir.ArgSpec{Rows: 8, Cols: 8})
	var bin *ir.Bin
	for _, n := range p.Graph.Nodes {
		ir.WalkStmts(n.Stmts, func(s ir.Stmt) bool {
			for _, e := range ir.StmtExprs(s) {
				ir.WalkExprs(e, func(x ir.Expr) {
					if b, ok := x.(*ir.Bin); ok && bin == nil {
						bin = b
					}
				})
			}
			return bin == nil
		})
	}
	if bin == nil {
		t.Fatal("no binary operator in any task region")
	}
	bin.Op = -1 // CompileRegions rejects an operator outside ir.BinOp
	c0, _, _ := VMCounters()
	for i := 0; i < 2; i++ {
		_, err := run(context.Background(), p, [][]float64{randImg(64, 1)}, nil, false)
		if err == nil || !strings.HasPrefix(err.Error(), "sim: bytecode compile: ") ||
			!strings.Contains(err.Error(), "unknown binary operator") {
			t.Fatalf("run %d: error %v, want the bytecode compile error", i, err)
		}
	}
	if c1, _, _ := VMCounters(); c1-c0 != 1 {
		t.Errorf("%d bytecode compiles over two runs, want 1", c1-c0)
	}
}
