package htg

import "argo/internal/ir"

// Index-based freeze/thaw of a Graph (the ir snapshot codec applied to
// task graphs), which is what makes build-htg/annotate/coarsen results
// storable in the content-addressed pass cache: a frozen graph holds no
// pointers into any ir.Program, so it can be thawed against any program
// with the same content fingerprint — a later compilation of the same
// configuration, an argod request, another session.
//
// A frozen node stores its label, kind, statement traversal indices,
// annotation results (WCET, SharedAccesses), and the derived analysis
// state (Uses, Ranges) encoded by variable registration index. Every
// graph produced by Build/Clone/Annotate/MergeUntil maintains the
// invariant Uses == ir.ComputeUses(Stmts) and Ranges ==
// ir.CollectAccessRanges(Stmts) (addNode computes exactly those,
// mergeInto unites its operands' summaries, which is the summary of
// the concatenation; Clone shares them; Annotate never touches them),
// so encoding them positionally and remapping them on thaw lands on the
// same analysis state a recomputation would — without paying the
// ComputeUses/CollectAccessRanges IR walks on every warm-compile
// restore, where they dominated the thaw cost. The use sets are bitsets
// over registration slots, so their frozen form is their words.

// FrozenGraph is the pointer-free form of a Graph.
type FrozenGraph struct {
	Nodes []frozenNode
	Edges []frozenEdge
}

type frozenNode struct {
	Label          string
	Kind           NodeKind
	Stmts          []int32 // traversal indices into the source program
	WCET           []int64
	SharedAccesses int64
	// Uses, as the four bitsets' words over the registration slots
	// (ir.UseSets.Words). Every thaw aliases them.
	UseWords []uint64
	// Ranges, encoded as parallel (variable index, range) lists.
	RangeVars []int32
	RangeVals []ir.AccessRange
}

type frozenEdge struct {
	From, To    int
	Vars        []int32 // registration indices into Program.Vars
	VolumeBytes int
}

// Freeze encodes the graph against idx. ok is false when any statement
// or variable (in edges, use sets, or access ranges) is not indexable
// (an unregistered straggler), in which case the graph must not be
// cached.
func (g *Graph) Freeze(idx *ir.SnapshotIndex) (*FrozenGraph, bool) {
	f := &FrozenGraph{
		Nodes: make([]frozenNode, len(g.Nodes)),
		Edges: make([]frozenEdge, len(g.Edges)),
	}
	for i, n := range g.Nodes {
		stmts, ok := idx.Stmts(n.Stmts)
		if !ok {
			return nil, false
		}
		fn := frozenNode{
			Label:          n.Label,
			Kind:           n.Kind,
			Stmts:          stmts,
			SharedAccesses: n.SharedAccesses,
		}
		if fn.UseWords, ok = n.Uses.Words(idx.Program()); !ok {
			return nil, false
		}
		fn.RangeVars = make([]int32, len(n.Ranges))
		fn.RangeVals = make([]ir.AccessRange, len(n.Ranges))
		for j, r := range n.Ranges {
			if fn.RangeVars[j], ok = idx.Var(r.V); !ok {
				return nil, false
			}
			fn.RangeVals[j] = r.AccessRange
		}
		if n.WCET != nil {
			fn.WCET = append([]int64(nil), n.WCET...)
		}
		f.Nodes[i] = fn
	}
	for i, e := range g.Edges {
		vars, ok := idx.Vars(e.Vars)
		if !ok {
			return nil, false
		}
		f.Edges[i] = frozenEdge{From: e.From, To: e.To, Vars: vars, VolumeBytes: e.VolumeBytes}
	}
	return f, true
}

// Thaw rebuilds a live graph against tab. Node IDs are positional (the
// invariant every Graph constructor maintains); Uses and Ranges are
// remapped from their index encodings, which reproduces the frozen
// graph's analysis state exactly (see the package comment above — the
// encoded summaries are the ones ComputeUses/CollectAccessRanges
// produced on the freeze side, and remapping preserves contents and the
// slot order of the ranges).
func (f *FrozenGraph) Thaw(tab *ir.SnapshotTable) *Graph {
	g := &Graph{
		Nodes: make([]*Node, len(f.Nodes)),
		Edges: make([]Edge, len(f.Edges)),
	}
	for i := range f.Nodes {
		fn := &f.Nodes[i]
		var rng ir.AccessRanges // nil when empty, as CollectAccessRanges
		for j, vi := range fn.RangeVars {
			rng = append(rng, ir.VarRange{V: tab.Var(vi), AccessRange: fn.RangeVals[j]})
		}
		n := &Node{
			ID:             i,
			Label:          fn.Label,
			Kind:           fn.Kind,
			Stmts:          tab.Stmts(fn.Stmts),
			Uses:           ir.UseSetsFromWords(tab.Program(), fn.UseWords),
			Ranges:         rng,
			SharedAccesses: fn.SharedAccesses,
		}
		if fn.WCET != nil {
			n.WCET = append([]int64(nil), fn.WCET...)
		}
		g.Nodes[i] = n
	}
	for i, e := range f.Edges {
		g.Edges[i] = Edge{From: e.From, To: e.To, Vars: tab.Vars(e.Vars), VolumeBytes: e.VolumeBytes}
	}
	return g
}
