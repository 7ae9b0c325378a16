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
// ir.CollectAccessRanges(Stmts) (addNode and mergeInto compute exactly
// those; Clone shares them; Annotate never touches them), so encoding
// the maps positionally and remapping them on thaw lands on the same
// analysis state a recomputation would — without paying the
// ComputeUses/CollectAccessRanges IR walks on every warm-compile
// restore, where they dominated the thaw cost.

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
	// Uses, encoded as registration-index sets (order irrelevant: the
	// thaw side rebuilds the maps).
	MatReads, MatWrites, ScalReads, ScalWrite []int32
	// Ranges, encoded as parallel (variable index, range) lists.
	RangeVars []int32
	RangeVals []ir.AccessRange
}

type frozenEdge struct {
	From, To    int
	Vars        []int32 // registration indices into Program.Vars
	VolumeBytes int
}

// freezeVarSet encodes one use set; ok is false if any member variable
// is unregistered.
func freezeVarSet(idx *ir.SnapshotIndex, set map[*ir.Var]bool) ([]int32, bool) {
	out := make([]int32, 0, len(set))
	for v := range set {
		i, ok := idx.Var(v)
		if !ok {
			return nil, false
		}
		out = append(out, i)
	}
	return out, true
}

// thawVarSet rebuilds one use set from its index encoding.
func thawVarSet(tab *ir.SnapshotTable, idx []int32) map[*ir.Var]bool {
	m := make(map[*ir.Var]bool, len(idx))
	for _, i := range idx {
		m[tab.Var(i)] = true
	}
	return m
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
		if n.Uses == nil || n.Ranges == nil {
			// Violates the constructor invariant; decline to cache.
			return nil, false
		}
		fn := frozenNode{
			Label:          n.Label,
			Kind:           n.Kind,
			Stmts:          stmts,
			SharedAccesses: n.SharedAccesses,
		}
		if fn.MatReads, ok = freezeVarSet(idx, n.Uses.MatReads); !ok {
			return nil, false
		}
		if fn.MatWrites, ok = freezeVarSet(idx, n.Uses.MatWrites); !ok {
			return nil, false
		}
		if fn.ScalReads, ok = freezeVarSet(idx, n.Uses.ScalReads); !ok {
			return nil, false
		}
		if fn.ScalWrite, ok = freezeVarSet(idx, n.Uses.ScalWrite); !ok {
			return nil, false
		}
		fn.RangeVars = make([]int32, 0, len(n.Ranges))
		fn.RangeVals = make([]ir.AccessRange, 0, len(n.Ranges))
		for v, r := range n.Ranges {
			vi, ok := idx.Var(v)
			if !ok {
				return nil, false
			}
			fn.RangeVars = append(fn.RangeVars, vi)
			fn.RangeVals = append(fn.RangeVals, r)
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
// encoded maps are the ones ComputeUses/CollectAccessRanges produced on
// the freeze side, and remapping preserves contents).
func (f *FrozenGraph) Thaw(tab *ir.SnapshotTable) *Graph {
	g := &Graph{
		Nodes: make([]*Node, len(f.Nodes)),
		Edges: make([]Edge, len(f.Edges)),
	}
	for i := range f.Nodes {
		fn := &f.Nodes[i]
		rng := make(map[*ir.Var]ir.AccessRange, len(fn.RangeVars))
		for j, vi := range fn.RangeVars {
			rng[tab.Var(vi)] = fn.RangeVals[j]
		}
		n := &Node{
			ID:    i,
			Label: fn.Label,
			Kind:  fn.Kind,
			Stmts: tab.Stmts(fn.Stmts),
			Uses: &ir.UseSets{
				MatReads:  thawVarSet(tab, fn.MatReads),
				MatWrites: thawVarSet(tab, fn.MatWrites),
				ScalReads: thawVarSet(tab, fn.ScalReads),
				ScalWrite: thawVarSet(tab, fn.ScalWrite),
			},
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
