package htg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/ir"
	"argo/internal/scil"
	"argo/internal/transform"
	"argo/internal/usecases"
	"argo/internal/wcet"
)

func compile(t *testing.T, src, entry string, args ...ir.ArgSpec) *ir.Program {
	t.Helper()
	p, err := scil.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if errs := scil.Check(p, scil.CheckWCET); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	prog, err := ir.Lower(p, entry, args)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

const pipelineSrc = `
function [outa, outb] = f(img)
  h = size(img, 1)
  w = size(img, 2)
  tmp = zeros(h, w)
  outa = zeros(h, w)
  outb = zeros(h, w)
  for i = 1:h
    for j = 1:w
      tmp(i, j) = img(i, j) * 2
    end
  end
  for i = 1:h
    for j = 1:w
      outa(i, j) = tmp(i, j) + 1
    end
  end
  for i = 1:h
    for j = 1:w
      outb(i, j) = tmp(i, j) - 1
    end
  end
endfunction`

func models(n int) []wcet.CostModel {
	p := adl.XentiumPlatform(n)
	ms := make([]wcet.CostModel, n)
	for i := range ms {
		ms[i] = wcet.ModelFor(p, i)
	}
	return ms
}

func TestBuildProducerConsumers(t *testing.T) {
	prog := compile(t, pipelineSrc, "f", ir.MatrixArg(6, 6))
	g := Build(prog)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) < 4 {
		t.Fatalf("nodes: %d\n%s", len(g.Nodes), g.Dump())
	}
	// The two consumer loops must depend on the producer loop but not on
	// each other.
	var producer, consA, consB *Node
	for _, n := range g.Nodes {
		n.Uses.MatWrites().Each(func(v *ir.Var) bool {
			switch {
			case strings.HasPrefix(v.Name, "tmp"):
				producer = n
			case strings.HasPrefix(v.Name, "outa") && n.Kind == KindLoop:
				consA = n
			case strings.HasPrefix(v.Name, "outb") && n.Kind == KindLoop:
				consB = n
			}
			return true
		})
	}
	if producer == nil || consA == nil || consB == nil {
		t.Fatalf("missing tasks:\n%s", g.Dump())
	}
	if g.EdgeBetween(producer.ID, consA.ID) == nil && !g.reaches(producer.ID, consA.ID) {
		t.Fatal("missing dependence producer -> consA")
	}
	if g.EdgeBetween(consA.ID, consB.ID) != nil {
		t.Fatal("independent consumers must not depend on each other")
	}
}

func TestEdgesCarryVolumes(t *testing.T) {
	prog := compile(t, pipelineSrc, "f", ir.MatrixArg(4, 4))
	g := Build(prog)
	found := false
	for _, e := range g.Edges {
		for _, v := range e.Vars {
			if strings.HasPrefix(v.Name, "tmp") {
				found = true
				if e.VolumeBytes < 4*4*8 {
					t.Fatalf("volume %d too small", e.VolumeBytes)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no edge carries tmp:\n%s", g.Dump())
	}
}

func TestHierarchyLevels(t *testing.T) {
	prog := compile(t, `
function r = f(m)
  r = 0
  for i = 1:4
    s = 0
    for j = 1:4
      s = s + m(i, j)
    end
    r = r + s
  end
endfunction`, "f", ir.MatrixArg(4, 4))
	g := Build(prog)
	var loopNode *Node
	for _, n := range g.Nodes {
		if n.Kind == KindLoop {
			loopNode = n
		}
	}
	if loopNode == nil {
		t.Fatalf("no loop node:\n%s", g.Dump())
	}
}

func TestAnnotateWCETAndAccesses(t *testing.T) {
	prog := compile(t, pipelineSrc, "f", ir.MatrixArg(8, 8))
	g := Build(prog)
	Annotate(g, models(4))
	for _, n := range g.Nodes {
		if len(n.WCET) != 4 {
			t.Fatalf("node %d has %d WCETs", n.ID, len(n.WCET))
		}
		if n.WCET[0] <= 0 {
			t.Fatalf("node %d WCET %d", n.ID, n.WCET[0])
		}
	}
	seq := g.SequentialWCET(0)
	cp := g.CriticalPathWCET(0)
	if cp <= 0 || cp > seq {
		t.Fatalf("critical path %d vs sequential %d", cp, seq)
	}
	if cp == seq {
		t.Fatal("pipeline graph should have parallelism (cp < seq)")
	}
}

func TestCoarsenChains(t *testing.T) {
	prog := compile(t, `
function out = f(v)
  n = length(v)
  a = zeros(1, n)
  b = zeros(1, n)
  out = zeros(1, n)
  for i = 1:n
    a(1, i) = v(1, i) * 2
  end
  for i = 1:n
    b(1, i) = a(1, i) + 1
  end
  for i = 1:n
    out(1, i) = b(1, i) * 3
  end
endfunction`, "f", ir.MatrixArg(1, 8))
	g := Build(prog)
	Annotate(g, models(2))
	nodesBefore := len(g.Nodes)
	merges := g.CoarsenChains()
	if merges == 0 || len(g.Nodes) >= nodesBefore {
		t.Fatalf("merges=%d nodes %d -> %d\n%s", merges, nodesBefore, len(g.Nodes), g.Dump())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeUntil(t *testing.T) {
	prog := compile(t, pipelineSrc, "f", ir.MatrixArg(8, 8))
	// Fission creates even more tasks first.
	transform.Apply(prog, transform.Options{Fission: true})
	g := Build(prog)
	Annotate(g, models(2))
	g.MergeUntil(3)
	if len(g.Nodes) > 3 {
		t.Fatalf("nodes after merge: %d", len(g.Nodes))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergePreservesSemantics(t *testing.T) {
	// Execute all node regions in ID order after merging; results must
	// match the original program (merging must respect dependences).
	prog := compile(t, pipelineSrc, "f", ir.MatrixArg(5, 5))
	in := make([]float64, 25)
	for i := range in {
		in[i] = float64(i) * 1.5
	}
	want, err := ir.NewExec(prog, nil).Run([][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(prog)
	Annotate(g, models(2))
	g.MergeUntil(2)
	var stmts []ir.Stmt
	for _, n := range g.Nodes {
		stmts = append(stmts, n.Stmts...)
	}
	merged := &ir.Program{Entry: &ir.Func{
		Name: "merged", Params: prog.Entry.Params, Results: prog.Entry.Results, Body: stmts,
	}, Vars: prog.Vars}
	got, err := ir.NewExec(merged, nil).Run([][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for k := range want[i] {
			if want[i][k] != got[i][k] {
				t.Fatalf("result %d elem %d: %g vs %g", i, k, got[i][k], want[i][k])
			}
		}
	}
}

func TestDumpContainsTasksAndEdges(t *testing.T) {
	prog := compile(t, pipelineSrc, "f", ir.MatrixArg(4, 4))
	g := Build(prog)
	Annotate(g, models(1))
	d := g.Dump()
	if !strings.Contains(d, "task 0") || !strings.Contains(d, "->") {
		t.Fatalf("dump:\n%s", d)
	}
}

func TestCloneIsolatesAnnotateAndMerge(t *testing.T) {
	// The optimizer builds the graph once per candidate and clones it per
	// feedback round; annotating and merging the clone must leave the
	// original untouched and produce the same result as a fresh build.
	prog := compile(t, pipelineSrc, "f", ir.MatrixArg(8, 8))
	transform.Apply(prog, transform.Options{Fission: true})
	base := Build(prog)
	before := base.Dump()

	clone := base.Clone()
	Annotate(clone, models(2))
	clone.MergeUntil(3)
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}

	if base.Dump() != before {
		t.Fatalf("mutating clone changed original dump:\n%s", base.Dump())
	}
	for i, n := range base.Nodes {
		if n.WCET != nil {
			t.Fatalf("clone annotate leaked WCET into original node %d", i)
		}
	}

	fresh := Build(prog)
	Annotate(fresh, models(2))
	fresh.MergeUntil(3)
	if got, want := clone.Dump(), fresh.Dump(); got != want {
		t.Fatalf("clone pipeline diverges from fresh build:\n--- clone ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

func TestChunkedLoopsRecognizedIndependent(t *testing.T) {
	// A data-parallel loop split into chunks writing disjoint rows: the
	// interval dependence test must not create edges between the chunks.
	prog := compile(t, `
function out = f(img)
  h = size(img, 1)
  w = size(img, 2)
  out = zeros(h, w)
  for i = 1:h
    for j = 1:w
      out(i, j) = img(i, j) * 2
    end
  end
endfunction`, "f", ir.MatrixArg(8, 8))
	n := transform.ParallelizeLoops(prog, 4)
	if n == 0 {
		t.Fatal("loop did not chunk")
	}
	g := Build(prog)
	Annotate(g, models(4))
	// Find the chunk tasks (loop nodes writing `out` and reading img).
	var chunks []int
	for _, nd := range g.Nodes {
		if nd.Kind != KindLoop {
			continue
		}
		nd.Uses.MatWrites().Each(func(v *ir.Var) bool {
			if strings.HasPrefix(v.Name, "out") && nd.Uses.MatReads().Has(prog.Entry.Params[0]) {
				chunks = append(chunks, nd.ID)
			}
			return true
		})
	}
	if len(chunks) < 4 {
		t.Fatalf("chunk tasks: %v\n%s", chunks, g.Dump())
	}
	for i := 0; i < len(chunks); i++ {
		for j := i + 1; j < len(chunks); j++ {
			if g.EdgeBetween(chunks[i], chunks[j]) != nil {
				t.Fatalf("false dependence between chunks %d and %d:\n%s", chunks[i], chunks[j], g.Dump())
			}
		}
	}
}

func TestHaloChunksStayDependent(t *testing.T) {
	// Stencil consumers read one row beyond their own chunk: producer and
	// consumer chunks with overlapping rows must keep their edges.
	prog := compile(t, `
function out = f(img)
  h = size(img, 1)
  w = size(img, 2)
  tmp = zeros(h, w)
  out = zeros(h, w)
  for i = 1:h
    for j = 1:w
      tmp(i, j) = img(i, j) * 2
    end
  end
  for i = 2:h-1
    for j = 1:w
      out(i, j) = tmp(i - 1, j) + tmp(i + 1, j)
    end
  end
endfunction`, "f", ir.MatrixArg(12, 6))
	transform.ParallelizeLoops(prog, 3)
	g := Build(prog)
	Annotate(g, models(2))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every stencil chunk must depend on at least one producer chunk.
	for _, nd := range g.Nodes {
		named := func(s ir.VarSet, prefix string) bool {
			return !s.Each(func(v *ir.Var) bool { return !strings.HasPrefix(v.Name, prefix) })
		}
		reads := named(nd.Uses.MatReads(), "tmp")
		writesOut := named(nd.Uses.MatWrites(), "out")
		if reads && writesOut && len(g.Preds(nd.ID)) == 0 {
			t.Fatalf("stencil chunk %d has no producers:\n%s", nd.ID, g.Dump())
		}
	}
}

// pipelineProgram lowers a use case and applies the pipeline's
// transformations for a cores-core platform (scratchpad promotion
// aside: it changes storage, which no summary reads).
func pipelineProgram(t *testing.T, u *usecases.UseCase, cores int) *ir.Program {
	t.Helper()
	src, err := u.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(src, u.Entry, u.Args)
	if err != nil {
		t.Fatal(err)
	}
	transform.Apply(prog, transform.Options{Fold: true, Hoist: true, ElideInits: true, Fission: true, ParallelChunks: cores})
	return prog
}

// sameSummary reports how a node's summaries differ from a fresh
// ComputeUses/CollectAccessRanges of its statements, if they do.
func sameSummary(n *Node) error {
	fresh := ir.ComputeUses(n.Stmts)
	for _, c := range []struct {
		name      string
		got, want ir.VarSet
	}{
		{"MatReads", n.Uses.MatReads(), fresh.MatReads()},
		{"MatWrites", n.Uses.MatWrites(), fresh.MatWrites()},
		{"ScalReads", n.Uses.ScalReads(), fresh.ScalReads()},
		{"ScalWrite", n.Uses.ScalWrite(), fresh.ScalWrite()},
	} {
		if c.got.Len() != c.want.Len() || !c.want.Each(c.got.Has) {
			return fmt.Errorf("%s: %d members, fresh %d", c.name, c.got.Len(), c.want.Len())
		}
	}
	ranges := ir.CollectAccessRanges(n.Stmts)
	if len(n.Ranges) != len(ranges) {
		return fmt.Errorf("%d ranges, fresh %d", len(n.Ranges), len(ranges))
	}
	same := func(a, b ir.Interval) bool {
		return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
	}
	for i, r := range ranges {
		g := n.Ranges[i]
		if g.V != r.V || g.Any != r.Any || !same(g.Row, r.Row) || !same(g.Col, r.Col) {
			return fmt.Errorf("range %d of %s: %+v, fresh %+v of %s", i, g.V.Name, g.AccessRange, r.AccessRange, r.V.Name)
		}
	}
	return nil
}

// TestMergedSummariesMatchRecomputation merges the use cases' task
// graphs on the 16-core built-in platforms down to one node, one
// MergeUntil step at a time, and checks after every step that each
// node's summaries equal a fresh summary of its statements — mergeInto
// unites the operands' summaries instead of re-walking them — and that
// the graph the merged one was cloned from kept its own.
func TestMergedSummariesMatchRecomputation(t *testing.T) {
	for _, name := range []string{"xentium16", "leon3-4x4"} {
		platform := adl.Builtin(name)
		ms := make([]wcet.CostModel, platform.NumCores())
		for i := range ms {
			ms[i] = wcet.ModelFor(platform, i)
		}
		for _, u := range usecases.All() {
			checkMerges(t, name+" "+u.Name, pipelineProgram(t, u, len(ms)), ms)
		}
	}
}

// checkMerges runs the merge check on one program and platform.
func checkMerges(t *testing.T, label string, prog *ir.Program, ms []wcet.CostModel) {
	t.Helper()
	base := Build(prog)
	Annotate(base, ms)
	g := base.Clone()
	merged := 0
	for target := len(g.Nodes) - 1; target >= 1; target-- {
		before := len(g.Nodes)
		g.MergeUntil(target)
		merged += before - len(g.Nodes)
		for _, n := range g.Nodes {
			if err := sameSummary(n); err != nil {
				t.Fatalf("%s, %d nodes, %s: %v", label, len(g.Nodes), n.Label, err)
			}
		}
	}
	if merged < 5 {
		t.Fatalf("%s: only %d merges", label, merged)
	}
	for _, n := range base.Nodes {
		if err := sameSummary(n); err != nil {
			t.Fatalf("%s: base graph changed by merging its clone: %s: %v", label, n.Label, err)
		}
	}
}

// TestBuildAllocations pins htg.Build's allocations on POLKA chunked
// for 16 cores, 114 nodes and 353 edges (counted by the runtime, no
// clock involved): the use sets take one allocation per node, and the
// dependence test walks their words and allocates nothing per node
// pair.
func TestBuildAllocations(t *testing.T) {
	prog := pipelineProgram(t, usecases.POLKA(), 16)
	const limit = 1450
	if n := testing.AllocsPerRun(20, func() { Build(prog) }); n > limit {
		t.Fatalf("htg.Build allocates %v times, limit %d", n, limit)
	} else {
		t.Logf("htg.Build: %v allocations, %d nodes", n, len(Build(prog).Nodes))
	}
}
