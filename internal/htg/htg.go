// Package htg implements ARGO's Hierarchical Task Graph (paper §II-B):
// the task-level representation extracted from the lowered IR. Task
// dependencies carry the variables/buffers that must be communicated;
// task nodes carry their shared-resource access bounds (list of shared
// variables and worst-case access counts), exactly the information the
// scheduling/mapping and system-level WCET stages need.
//
// The paper encloses each loop in a further hierarchy level. Only the
// top level is built here, because it is the only one the pipeline
// reads: the scheduler maps top-level tasks, and a loop's inner
// parallelism reaches it by transformation (data-parallel chunking and
// fission split a loop into top-level tasks before the graph is built),
// not through lower graph levels.
package htg

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"argo/internal/ir"
	"argo/internal/wcet"
)

// NodeKind distinguishes task node flavours.
type NodeKind int

// Node kinds.
const (
	// KindRegion is a straight-line (or branchy, loop-free at top level)
	// statement region.
	KindRegion NodeKind = iota
	// KindLoop is a loop nest, kept whole as one task.
	KindLoop
)

// Node is one task of the graph.
type Node struct {
	ID    int
	Label string
	Kind  NodeKind
	// Stmts is the IR region this task executes.
	Stmts []ir.Stmt
	// Uses are the task's may-read/may-write sets.
	Uses ir.UseSets
	// Ranges are per-variable subscript intervals for the interval
	// dependence test (chunked loops over disjoint regions of one array
	// are recognized as independent).
	Ranges ir.AccessRanges
	// WCET is the isolated code-level bound per core id (filled by
	// Annotate).
	WCET []int64
	// SharedAccesses bounds the task's shared-memory accesses (filled by
	// Annotate; storage-aware).
	SharedAccesses int64
}

// Edge is a data dependence between tasks, carrying the set of
// communicated buffers and their total volume.
type Edge struct {
	From, To int
	// Vars are the matrix variables written by From and read by To.
	Vars []*ir.Var
	// VolumeBytes is the worst-case communicated volume.
	VolumeBytes int
}

// Graph is the task level: a DAG of task nodes in program order.
type Graph struct {
	Nodes []*Node
	Edges []Edge
}

// Succs returns the successor node ids of node id.
func (g *Graph) Succs(id int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e.To)
		}
	}
	return out
}

// Preds returns the predecessor node ids of node id.
func (g *Graph) Preds(id int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.To == id {
			out = append(out, e.From)
		}
	}
	return out
}

// EdgeBetween returns the edge from a to b, or nil.
func (g *Graph) EdgeBetween(a, b int) *Edge {
	for i := range g.Edges {
		if g.Edges[i].From == a && g.Edges[i].To == b {
			return &g.Edges[i]
		}
	}
	return nil
}

// Build extracts the task graph of a lowered program: top-level loops
// become loop nodes and maximal runs of non-loop statements become
// region nodes.
func Build(prog *ir.Program) *Graph {
	g := &Graph{}
	var pending []ir.Stmt
	flush := func() {
		if len(pending) == 0 {
			return
		}
		g.addNode(&Node{Kind: KindRegion, Stmts: pending})
		pending = nil
	}
	for _, s := range prog.Entry.Body {
		if _, ok := s.(*ir.For); ok {
			flush()
			g.addNode(&Node{Kind: KindLoop, Stmts: []ir.Stmt{s}})
			continue
		}
		pending = append(pending, s)
	}
	flush()
	g.connect(prog)
	return g
}

func (g *Graph) addNode(n *Node) {
	n.ID = len(g.Nodes)
	n.Uses = ir.ComputeUses(n.Stmts)
	n.Ranges = ir.CollectAccessRanges(n.Stmts)
	if n.Label == "" {
		switch n.Kind {
		case KindLoop:
			if f, ok := n.Stmts[0].(*ir.For); ok && f.Label != "" {
				n.Label = "loop:" + f.Label
			} else {
				n.Label = fmt.Sprintf("loop%d", n.ID)
			}
		default:
			n.Label = fmt.Sprintf("region%d", n.ID)
		}
	}
	g.Nodes = append(g.Nodes, n)
}

// connect adds dependence edges between all conflicting node pairs in
// program order, annotated with communicated buffers.
//
// Scalar registers that every using task defines before reading (loop
// induction variables, iteration-local temporaries) are privatizable: they
// carry no real dependence and are excluded, which is what exposes the
// task-level parallelism between independent loop nests.
func (g *Graph) connect(prog *ir.Program) {
	live := g.liveOutScalars(prog)
	for i := 0; i < len(g.Nodes); i++ {
		for j := i + 1; j < len(g.Nodes); j++ {
			a, b := g.Nodes[i], g.Nodes[j]
			if !dependsOn(a, b, live) {
				continue
			}
			e := Edge{From: a.ID, To: b.ID}
			carry := func(v *ir.Var) bool {
				e.Vars = append(e.Vars, v)
				e.VolumeBytes += v.SizeBytes()
				return true
			}
			a.Uses.MatWrites().EachCommon(b.Uses.MatReads(), carry)
			a.Uses.MatWrites().EachCommon(b.Uses.MatWrites(), func(v *ir.Var) bool {
				return b.Uses.MatReads().Has(v) || carry(v)
			})
			slices.SortFunc(e.Vars, func(x, y *ir.Var) int { return strings.Compare(x.Name, y.Name) })
			g.Edges = append(g.Edges, e)
		}
	}
}

// liveOutScalars returns the scalars that some node reads without
// defining first (ir.DefinedBeforeUse) — only these carry real
// cross-task scalar dependences.
func (g *Graph) liveOutScalars(prog *ir.Program) ir.VarSet {
	live := ir.NewVarSet(prog)
	add := func(v *ir.Var) bool {
		live.Add(v)
		return true
	}
	for _, n := range g.Nodes {
		if !n.Uses.ScalReads().Empty() {
			defined := ir.DefinedBeforeUse(n.Stmts)
			n.Uses.ScalReads().Each(func(v *ir.Var) bool { return defined.Has(v) || add(v) })
		}
		// Entry results are read after the program ends: their final
		// value matters, so writes to them must stay ordered.
		n.Uses.ScalWrite().Each(func(v *ir.Var) bool { return !v.Result || add(v) })
	}
	return live
}

// dependsOn reports a real dependence a -> b (a precedes b in program
// order): any matrix conflict, or a conflict on a live-out scalar.
func dependsOn(a, b *Node, live ir.VarSet) bool {
	// Interval dependence test: disjoint subscript ranges on some
	// dimension prove independence (e.g. parallelized loop chunks).
	return a.Uses.Precedes(b.Uses, live, func(v *ir.Var) bool { return !a.Ranges.Get(v).DisjointFrom(b.Ranges.Get(v)) })
}

// Clone returns a copy of the graph that shares the immutable per-node
// analysis state (Stmts, Uses, Ranges — all storage-independent
// and never mutated in place) but copies every Node, Edge, and edge
// variable list. Annotating or coarsening the copy never touches the
// receiver, which lets the compile driver build the task graph once per
// candidate and re-derive a fresh schedulable graph per feedback round.
func (g *Graph) Clone() *Graph {
	out := &Graph{Nodes: make([]*Node, len(g.Nodes)), Edges: make([]Edge, len(g.Edges))}
	// The node copies, their WCET slices and the edges' variable lists
	// are each carved from one allocation.
	nodes := make([]Node, len(g.Nodes))
	words, vars := 0, 0
	for _, n := range g.Nodes {
		words += len(n.WCET)
	}
	for _, e := range g.Edges {
		vars += len(e.Vars)
	}
	wcets := make([]int64, words)
	for i, n := range g.Nodes {
		c := &nodes[i]
		*c = *n
		if k := len(n.WCET); k > 0 {
			copy(wcets, n.WCET)
			c.WCET, wcets = wcets[:k:k], wcets[k:]
		} else {
			c.WCET = nil
		}
		out.Nodes[i] = c
	}
	vs := make([]*ir.Var, vars)
	for i, e := range g.Edges {
		if k := len(e.Vars); k > 0 {
			copy(vs, e.Vars)
			e.Vars, vs = vs[:k:k], vs[k:]
		} else {
			e.Vars = nil
		}
		out.Edges[i] = e
	}
	return out
}

// Annotate fills per-core WCET bounds and shared access counts for every
// node, using the platform cost models and the default (IPET) engine.
// Each node's region is fingerprinted once and every unique cost model
// is analyzed through the content-addressed bound cache, so
// re-annotation across feedback rounds and optimizer candidates only
// pays for regions whose content (or variable storage) actually
// changed. The access counts ride along in the same cached report —
// they are model-independent, so the first core's report supplies them.
func Annotate(g *Graph, models []wcet.CostModel) {
	// The default selection has no cross-check engine, so no error path.
	_ = AnnotateWith(g, models, wcet.DefaultSelection())
}

// AnnotateWith is Annotate under an explicit engine selection. Bounds
// used downstream come from sel.Primary; when sel.Check is set (the
// "both" selector), every (region, model) pair is additionally analyzed
// by the check engine and an exact bound exceeding the primary bound
// fails the annotation loudly — that invariant breaking means one of
// the two analyses is unsound, and no schedule built on it can be
// trusted.
func AnnotateWith(g *Graph, models []wcet.CostModel, sel wcet.Selection) error {
	for _, n := range g.Nodes {
		n.WCET = make([]int64, len(models))
		fp := wcet.FingerprintRegion(n.Stmts)
		var rep0 wcet.Report
		for c, m := range models {
			// Homogeneous cores share a cost model: reuse the bound
			// computed for the first core with the same model.
			dup := -1
			for p := 0; p < c; p++ {
				if models[p] == m {
					dup = p
					break
				}
			}
			if dup >= 0 {
				n.WCET[c] = n.WCET[dup]
				continue
			}
			rep := wcet.AnalyzeFP(sel.Primary, fp, n.Stmts, m)
			if sel.Check != nil {
				chk := wcet.AnalyzeFP(sel.Check, fp, n.Stmts, m)
				if chk.Cycles > rep.Cycles {
					return fmt.Errorf("htg: wcet cross-check failed for task %q core %d: %s bound %d exceeds %s bound %d",
						n.Label, c, sel.Check.Name(), chk.Cycles, sel.Primary.Name(), rep.Cycles)
				}
			}
			if c == 0 {
				rep0 = rep
			}
			n.WCET[c] = rep.Cycles
		}
		n.SharedAccesses = rep0.SharedAccesses
	}
	return nil
}

// Validate checks the graph is a DAG consistent with program order.
func (g *Graph) Validate() error {
	for _, e := range g.Edges {
		if e.From >= e.To {
			return fmt.Errorf("htg: edge %d->%d violates program order", e.From, e.To)
		}
		if e.From < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("htg: edge %d->%d out of range", e.From, e.To)
		}
	}
	return nil
}

// CriticalPathWCET returns the longest path through the graph using the
// given core's WCET annotation (communication ignored): a lower bound on
// any schedule's makespan and the sequential-WCET when summed.
func (g *Graph) CriticalPathWCET(core int) int64 {
	dist := make([]int64, len(g.Nodes))
	var best int64
	for _, n := range g.Nodes { // nodes are topologically ordered by ID
		d := dist[n.ID] + n.WCET[core]
		for _, s := range g.Succs(n.ID) {
			if d > dist[s] {
				dist[s] = d
			}
		}
		if d > best {
			best = d
		}
	}
	return best
}

// SequentialWCET sums all node WCETs on the given core (the single-core
// bound).
func (g *Graph) SequentialWCET(core int) int64 {
	var total int64
	for _, n := range g.Nodes {
		total += n.WCET[core]
	}
	return total
}

// Dump renders the graph for reports.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "task %d (%s)", n.ID, n.Label)
		if len(n.WCET) > 0 {
			fmt.Fprintf(&sb, " wcet=%d shared=%d", n.WCET[0], n.SharedAccesses)
		}
		sb.WriteString("\n")
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "  %d -> %d (%d bytes", e.From, e.To, e.VolumeBytes)
		for _, v := range e.Vars {
			fmt.Fprintf(&sb, " %s", v.Name)
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}

// CoarsenChains merges single-successor/single-predecessor chains to
// reduce graph size (granularity control). Returns the number of merges.
func (g *Graph) CoarsenChains() int {
	merges := 0
	for {
		merged := false
		for _, e := range g.Edges {
			if len(g.Succs(e.From)) == 1 && g.mergeLegal(e.From, e.To) {
				g.mergeInto(e.From, e.To)
				merges++
				merged = true
				break
			}
		}
		if !merged {
			return merges
		}
	}
}

// mergeLegal reports whether node b's statements may be moved up to run
// right after node a's: no node strictly between them (in program order)
// may have a dependence path into b.
func (g *Graph) mergeLegal(a, b int) bool {
	for m := a + 1; m < b; m++ {
		if g.reaches(m, b) {
			return false
		}
	}
	return true
}

// reaches reports whether a dependence path x -> ... -> y exists.
func (g *Graph) reaches(x, y int) bool {
	if x == y {
		return true
	}
	seen := map[int]bool{}
	var dfs func(n int) bool
	dfs = func(n int) bool {
		if n == y {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for _, s := range g.Succs(n) {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(x)
}

// MergeUntil coarsens the graph (chains first, then smallest-WCET pairs
// linked by an edge) until at most maxNodes remain. Requires Annotate.
func (g *Graph) MergeUntil(maxNodes int) {
	g.CoarsenChains()
	for len(g.Nodes) > maxNodes {
		// Merge the edge whose endpoints have the smallest combined
		// WCET, provided the merge keeps the graph a DAG (no other path
		// From -> To).
		bestIdx := -1
		var bestCost int64
		for i, e := range g.Edges {
			if g.hasOtherPath(e.From, e.To) || !g.mergeLegal(e.From, e.To) {
				continue
			}
			c := g.Nodes[e.From].WCET[0] + g.Nodes[e.To].WCET[0]
			if bestIdx < 0 || c < bestCost {
				bestIdx, bestCost = i, c
			}
		}
		if bestIdx < 0 {
			return
		}
		g.mergeInto(g.Edges[bestIdx].From, g.Edges[bestIdx].To)
	}
}

// hasOtherPath reports whether a path a->...->b exists avoiding the
// direct edge.
func (g *Graph) hasOtherPath(a, b int) bool {
	seen := map[int]bool{}
	var dfs func(n int) bool
	dfs = func(n int) bool {
		if n == b {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for _, s := range g.Succs(n) {
			if n == a && s == b {
				continue // skip the direct edge
			}
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(a)
}

// mergeInto merges node b into node a (a before b), rebuilding ids/edges.
func (g *Graph) mergeInto(a, b int) {
	na, nb := g.Nodes[a], g.Nodes[b]
	na.Stmts = append(append([]ir.Stmt{}, na.Stmts...), nb.Stmts...)
	na.Kind = KindRegion
	// The summaries of a concatenation are the unions of its parts'.
	// Union builds new sets: clones of the graph share the old ones.
	na.Uses = na.Uses.Union(nb.Uses)
	na.Ranges = na.Ranges.Union(nb.Ranges)
	if na.WCET != nil && nb.WCET != nil {
		for c := range na.WCET {
			na.WCET[c] += nb.WCET[c]
		}
		na.SharedAccesses += nb.SharedAccesses
	}
	na.Label = na.Label + "+" + nb.Label
	// Remap: remove b, shift ids.
	newID := make([]int, len(g.Nodes))
	var nodes []*Node
	for _, n := range g.Nodes {
		if n.ID == b {
			newID[n.ID] = newID[a]
			continue
		}
		newID[n.ID] = len(nodes)
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.ID = newID[n.ID]
	}
	seen := map[[2]int]int{} // (from,to) -> index into edges
	var edges []Edge
	for _, e := range g.Edges {
		f, t := newID[e.From], newID[e.To]
		if f == t {
			continue
		}
		key := [2]int{f, t}
		if i, ok := seen[key]; ok {
			edges[i].VolumeBytes += e.VolumeBytes
			edges[i].Vars = append(edges[i].Vars, e.Vars...)
			continue
		}
		seen[key] = len(edges)
		edges = append(edges, Edge{From: f, To: t, Vars: e.Vars, VolumeBytes: e.VolumeBytes})
	}
	g.Nodes = nodes
	g.Edges = edges
	g.sortEdges()
}

func (g *Graph) sortEdges() {
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].From != g.Edges[j].From {
			return g.Edges[i].From < g.Edges[j].From
		}
		return g.Edges[i].To < g.Edges[j].To
	})
}
