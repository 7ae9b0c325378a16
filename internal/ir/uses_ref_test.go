package ir_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"argo/internal/ir"
	"argo/internal/scil"
	"argo/internal/transform"
	"argo/internal/usecases"
)

// refUses is the map-based ComputeUses the bitset use sets replaced,
// kept as the oracle they must agree with.
type refUses struct {
	MatReads, MatWrites, ScalReads, ScalWrite map[*ir.Var]bool
}

func newRefUses() *refUses {
	return &refUses{MatReads: map[*ir.Var]bool{}, MatWrites: map[*ir.Var]bool{},
		ScalReads: map[*ir.Var]bool{}, ScalWrite: map[*ir.Var]bool{}}
}

func (u *refUses) addExpr(e ir.Expr) {
	ir.WalkExprs(e, func(sub ir.Expr) {
		switch x := sub.(type) {
		case *ir.VarRef:
			u.ScalReads[x.V] = true
		case *ir.Index:
			u.MatReads[x.V] = true
		}
	})
}

func refExprUses(e ir.Expr) *refUses {
	u := newRefUses()
	u.addExpr(e)
	return u
}

func refComputeUses(stmts []ir.Stmt) *refUses {
	u := newRefUses()
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.AssignScalar:
			u.addExpr(st.Src)
			u.ScalWrite[st.Dst] = true
		case *ir.Store:
			for _, ix := range st.Idx {
				u.addExpr(ix)
			}
			u.addExpr(st.Src)
			u.MatWrites[st.Dst] = true
		case *ir.For:
			u.addExpr(st.Lo)
			u.addExpr(st.Step)
			u.addExpr(st.Hi)
			u.ScalWrite[st.IVar] = true
		case *ir.While:
			u.addExpr(st.Cond)
		case *ir.If:
			u.addExpr(st.Cond)
		}
		return true
	})
	return u
}

// refCollectAccessRanges is the map-based CollectAccessRanges, with a
// scope map copied per loop, kept as the oracle. A linear access sets
// both ranges to the full line here, where the slice form unites them
// with it: the same, since math.Min and math.Max let the infinities win
// even over NaN.
func refCollectAccessRanges(stmts []ir.Stmt) map[*ir.Var]ir.AccessRange {
	out := map[*ir.Var]ir.AccessRange{}
	refCollectRanges(stmts, map[*ir.Var]ir.Interval{}, out)
	return out
}

var (
	refFull  = ir.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	refEmpty = ir.Interval{Lo: 1, Hi: 0}
)

func refUnion(a, b ir.Interval) ir.Interval {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return ir.Interval{Lo: math.Min(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi)}
}

func refExprInterval(e ir.Expr, scope map[*ir.Var]ir.Interval) ir.Interval {
	switch x := e.(type) {
	case *ir.Const:
		return ir.Interval{Lo: x.Val, Hi: x.Val}
	case *ir.VarRef:
		if iv, ok := scope[x.V]; ok {
			return iv
		}
		return refFull
	case *ir.Bin:
		a := refExprInterval(x.X, scope)
		b := refExprInterval(x.Y, scope)
		switch x.Op {
		case ir.OpAdd:
			return ir.Interval{Lo: a.Lo + b.Lo, Hi: a.Hi + b.Hi}
		case ir.OpSub:
			return ir.Interval{Lo: a.Lo - b.Hi, Hi: a.Hi - b.Lo}
		case ir.OpMul:
			if c, ok := x.Y.(*ir.Const); ok && c.Val >= 0 {
				return ir.Interval{Lo: a.Lo * c.Val, Hi: a.Hi * c.Val}
			}
			if c, ok := x.X.(*ir.Const); ok && c.Val >= 0 {
				return ir.Interval{Lo: b.Lo * c.Val, Hi: b.Hi * c.Val}
			}
		}
	}
	return refFull
}

func refRecord(out map[*ir.Var]ir.AccessRange, v *ir.Var, idx []ir.Expr, scope map[*ir.Var]ir.Interval) {
	ar, ok := out[v]
	if !ok {
		ar = ir.AccessRange{Row: refEmpty, Col: refEmpty}
	}
	ar.Any = true
	if len(idx) == 2 {
		ar.Row = refUnion(ar.Row, refExprInterval(idx[0], scope))
		ar.Col = refUnion(ar.Col, refExprInterval(idx[1], scope))
	} else {
		ar.Row, ar.Col = refFull, refFull
	}
	out[v] = ar
}

func refRangesInExpr(e ir.Expr, scope map[*ir.Var]ir.Interval, out map[*ir.Var]ir.AccessRange) {
	ir.WalkExprs(e, func(sub ir.Expr) {
		if ix, ok := sub.(*ir.Index); ok {
			refRecord(out, ix.V, ix.Idx, scope)
		}
	})
}

func refCollectRanges(stmts []ir.Stmt, scope map[*ir.Var]ir.Interval, out map[*ir.Var]ir.AccessRange) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.AssignScalar:
			refRangesInExpr(st.Src, scope, out)
		case *ir.Store:
			for _, ix := range st.Idx {
				refRangesInExpr(ix, scope, out)
			}
			refRangesInExpr(st.Src, scope, out)
			refRecord(out, st.Dst, st.Idx, scope)
		case *ir.If:
			refRangesInExpr(st.Cond, scope, out)
			refCollectRanges(st.Then, scope, out)
			refCollectRanges(st.Else, scope, out)
		case *ir.While:
			refRangesInExpr(st.Cond, scope, out)
			refCollectRanges(st.Body, scope, out)
		case *ir.For:
			refRangesInExpr(st.Lo, scope, out)
			refRangesInExpr(st.Step, scope, out)
			refRangesInExpr(st.Hi, scope, out)
			iv := refUnion(refExprInterval(st.Lo, scope), refExprInterval(st.Hi, scope))
			inner := map[*ir.Var]ir.Interval{}
			for k, v := range scope {
				inner[k] = v
			}
			inner[st.IVar] = iv
			refCollectRanges(st.Body, inner, out)
		}
	}
}

// passCorpus calls check on generated programs and on the three use
// cases as lowered and after every transformation pass, each pass's
// result taken as a clone.
func passCorpus(t *testing.T, check func(label string, prog *ir.Program)) {
	t.Helper()
	run := func(name string, prog *ir.Program, opts ...transform.Options) {
		check(name+" lowered", prog)
		for oi, opt := range opts {
			p := prog.Clone()
			var rep transform.Report
			for _, ps := range transform.Plan(opt) {
				ps.Run(p, opt, &rep)
				check(fmt.Sprintf("%s options %d after %s", name, oi, ps.Name), p.Clone())
			}
		}
	}
	gen := transform.DefaultOptions()
	gen.Hoist, gen.ElideInits, gen.Fusion = true, true, true
	gen.UnrollFactor, gen.TileI, gen.TileJ, gen.ParallelChunks = 2, 2, 3, 4
	cfg := scil.DefaultGenConfig()
	for seed := int64(0); seed < 40; seed++ {
		src := scil.Generate(rand.New(rand.NewSource(seed)), cfg)
		prog, err := ir.Lower(src, "fuzz", []ir.ArgSpec{ir.MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		run(fmt.Sprintf("seed %d", seed), prog, gen)
	}
	for _, u := range usecases.All() {
		src, err := u.Program()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Lower(src, u.Entry, u.Args)
		if err != nil {
			t.Fatal(err)
		}
		pipeline := transform.Options{Fold: true, Hoist: true, ElideInits: true, Fission: true, ParallelChunks: 16}
		run(u.Name, prog, pipeline, gen)
	}
}

// corpusRegions returns the regions of prog the analyses summarize:
// every statement list of the entry function, each of its suffixes, and
// each single statement.
func corpusRegions(prog *ir.Program) [][]ir.Stmt {
	var out [][]ir.Stmt
	for _, list := range statementLists(prog) {
		for from := range list {
			out = append(out, list[from:], list[from:from+1])
		}
	}
	return out
}

// checkSet reports how set differs from the oracle's map, if it does,
// and checks that Each runs in slot order.
func checkSet(set ir.VarSet, ref map[*ir.Var]bool) error {
	if set.Len() != len(ref) || set.Empty() != (len(ref) == 0) {
		return fmt.Errorf("%d members, oracle %d", set.Len(), len(ref))
	}
	for v := range ref {
		if !set.Has(v) {
			return fmt.Errorf("%s missing", v.Name)
		}
	}
	last, n := 0, 0
	var err error
	set.Each(func(v *ir.Var) bool {
		n++
		_, slot := v.Slot()
		switch {
		case !ref[v]:
			err = fmt.Errorf("Each yields %s, not in the oracle", v.Name)
		case slot > 0 && slot <= last:
			err = fmt.Errorf("Each yields slot %d after %d", slot, last)
		}
		last = slot
		return err == nil
	})
	if err == nil && n != len(ref) {
		err = fmt.Errorf("Each yields %d members, oracle %d", n, len(ref))
	}
	return err
}

func checkUses(u ir.UseSets, ref *refUses) error {
	for _, c := range []struct {
		name string
		set  ir.VarSet
		ref  map[*ir.Var]bool
	}{
		{"MatReads", u.MatReads(), ref.MatReads},
		{"MatWrites", u.MatWrites(), ref.MatWrites},
		{"ScalReads", u.ScalReads(), ref.ScalReads},
		{"ScalWrite", u.ScalWrite(), ref.ScalWrite},
	} {
		if err := checkSet(c.set, c.ref); err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
	}
	return nil
}

func sameInterval(a, b ir.Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

func checkRanges(rs ir.AccessRanges, ref map[*ir.Var]ir.AccessRange) error {
	if len(rs) != len(ref) {
		return fmt.Errorf("%d ranges, oracle %d", len(rs), len(ref))
	}
	for i, r := range rs {
		want, ok := ref[r.V]
		if !ok || r.Any != want.Any || !sameInterval(r.Row, want.Row) || !sameInterval(r.Col, want.Col) {
			return fmt.Errorf("%s: %+v, oracle %+v", r.V.Name, r.AccessRange, want)
		}
		if rs.Get(r.V) != r.AccessRange {
			return fmt.Errorf("Get(%s) misses its entry", r.V.Name)
		}
		if i > 0 {
			_, prev := rs[i-1].V.Slot()
			if _, slot := r.V.Slot(); slot < prev {
				return fmt.Errorf("slot %d after %d", slot, prev)
			}
		}
	}
	return nil
}

// TestUsesAndRangesMatchOracle compares ComputeUses, ExprUses and
// CollectAccessRanges with the map-based oracles on every region of the
// corpus.
func TestUsesAndRangesMatchOracle(t *testing.T) {
	regions, members := 0, 0
	passCorpus(t, func(label string, prog *ir.Program) {
		for ri, region := range corpusRegions(prog) {
			regions++
			ref := refComputeUses(region)
			members += len(ref.MatReads) + len(ref.MatWrites) + len(ref.ScalReads) + len(ref.ScalWrite)
			if err := checkUses(ir.ComputeUses(region), ref); err != nil {
				t.Fatalf("%s region %d: ComputeUses: %v\n%s", label, ri, err, prog.Dump())
			}
			if err := checkRanges(ir.CollectAccessRanges(region), refCollectAccessRanges(region)); err != nil {
				t.Fatalf("%s region %d: CollectAccessRanges: %v\n%s", label, ri, err, prog.Dump())
			}
			for _, s := range region[:1] {
				for _, e := range ir.StmtExprs(s) {
					if err := checkUses(ir.ExprUses(e), refExprUses(e)); err != nil {
						t.Fatalf("%s region %d: ExprUses(%s): %v", label, ri, ir.ExprString(e), err)
					}
				}
			}
		}
	})
	if regions < 10000 || members < 10*regions {
		t.Fatalf("thin corpus: %d regions, %d members", regions, members)
	}
}

// TestUsesWithoutSlots covers members the bits cannot hold: unregistered
// variables, variables registered after the sets were built, sets sized
// to different table lengths, and sets over different programs, in
// membership, iteration, intersection and union.
func TestUsesWithoutSlots(t *testing.T) {
	p := &ir.Program{Entry: &ir.Func{Name: "f"}}
	var reg []*ir.Var
	for i := 0; i < 70; i++ {
		reg = append(reg, p.FreshVar("s", 1, 1, true))
	}
	m := p.FreshVar("m", 2, 2, false)
	free := &ir.Var{Name: "free", Rows: 1, Cols: 1, Scalar: true}
	freeM := &ir.Var{Name: "freeM", Rows: 2, Cols: 2}
	later := &ir.Var{Name: "later", Rows: 1, Cols: 1, Scalar: true}
	set := func(dst *ir.Var, src ir.Expr) ir.Stmt { return &ir.AssignScalar{Dst: dst, Src: src} }
	ref := func(v *ir.Var) ir.Expr { return &ir.VarRef{V: v} }
	elem := func(v *ir.Var) ir.Expr { return &ir.Index{V: v, Idx: []ir.Expr{&ir.Const{Val: 1}}} }

	// A region whose first variable is unregistered still sizes its sets
	// to the program of the first registered one: 71 slots, two words.
	a := []ir.Stmt{set(free, ref(reg[69])), set(reg[3], elem(freeM)),
		&ir.Store{Dst: m, Idx: []ir.Expr{ref(free)}, Src: elem(m)}, set(later, ref(later))}
	ua := ir.ComputeUses(a)
	if err := checkUses(ua, refComputeUses(a)); err != nil {
		t.Fatal(err)
	}
	// The table grows past ua's bits to 132 slots, three words; later
	// is registered after it entered ua.
	var late []*ir.Var
	for i := 0; i < 60; i++ {
		late = append(late, p.FreshVar("late", 1, 1, true))
	}
	p.NewVar(later)
	if err := checkUses(ua, refComputeUses(a)); err != nil {
		t.Fatalf("after registration: %v", err)
	}
	b := []ir.Stmt{set(late[59], ref(free)), set(reg[69], ref(late[0])), set(free, elem(freeM)), set(later, ref(reg[3]))}
	ub := ir.ComputeUses(b)
	if err := checkUses(ub, refComputeUses(b)); err != nil {
		t.Fatal(err)
	}
	ab := append(append([]ir.Stmt{}, a...), b...)
	if err := checkUses(ua.Union(ub), refComputeUses(ab)); err != nil {
		t.Fatalf("union: %v", err)
	}
	if err := checkUses(ub.Union(ua), refComputeUses(ab)); err != nil {
		t.Fatalf("union, other order: %v", err)
	}
	// Sets over another program: a clone's copies of the variables.
	q := p.Clone()
	qa := ir.ComputeUses([]ir.Stmt{set(q.Vars[3], ref(q.Vars[69])), set(free, ref(reg[3]))})
	for i, c := range []struct {
		x, y ir.VarSet
		want int
	}{
		{ua.ScalReads(), ub.ScalReads(), 1}, // free
		{ua.ScalWrite(), ub.ScalWrite(), 2}, // free; later, in ua's list and ub's bits
		{ua.ScalWrite(), qa.ScalWrite(), 1}, // free
		{ua.ScalReads(), qa.ScalReads(), 0}, // reg[69] against its copy; free
		{qa.ScalReads(), ub.ScalReads(), 1}, // reg[3], in qa's list and ub's bits
		{ub.ScalReads(), ua.ScalWrite(), 2}, // free, reg[3]
	} {
		common := 0
		c.x.EachCommon(c.y, func(*ir.Var) bool { common++; return true })
		n := 0
		c.x.Each(func(v *ir.Var) bool {
			if c.y.Has(v) {
				n++
			}
			return true
		})
		if common != c.want || n != c.want {
			t.Errorf("case %d: EachCommon finds %d members, Each and Has %d, want %d", i, common, n, c.want)
		}
		back := 0
		c.y.EachCommon(c.x, func(*ir.Var) bool { back++; return true })
		if back != c.want {
			t.Errorf("case %d: EachCommon the other way round finds %d members, want %d", i, back, c.want)
		}
	}
	// The dependence test over such sets takes the member-wise path.
	all := map[*ir.Var]bool{}
	for _, v := range append(append([]*ir.Var{free, later}, reg...), late...) {
		all[v] = true
	}
	liveAll := ir.NewVarSet(p)
	for v := range all {
		liveAll.Add(v)
	}
	refs := map[*ir.UseSets]*refUses{&ua: refComputeUses(a), &ub: refComputeUses(b)}
	for x, rx := range refs {
		for y, ry := range refs {
			for _, meet := range []func(*ir.Var) bool{
				func(*ir.Var) bool { return true },
				func(*ir.Var) bool { return false },
			} {
				if got, want := x.Precedes(*y, liveAll, meet), refPrecedes(rx, ry, all, meet); got != want {
					t.Errorf("Precedes %v, reference %v", got, want)
				}
			}
		}
	}
	// A foreign copy Clone makes keeps no slot.
	f := &ir.Program{Entry: &ir.Func{Name: "g", Body: []ir.Stmt{set(reg[0], ref(free))}}}
	fc := f.Clone()
	copied := fc.Entry.Body[0].(*ir.AssignScalar).Dst
	if owner, slot := copied.Slot(); owner != nil || slot != 0 || copied == reg[0] {
		t.Fatalf("foreign copy keeps slot %d of %p", slot, owner)
	}
	if err := checkUses(ir.ComputeUses(fc.Entry.Body), refComputeUses(fc.Entry.Body)); err != nil {
		t.Fatal(err)
	}
}

// TestComputeUsesAllocatesOnce pins that a region's use sets take one
// allocation, the words of all four sets, when every variable has a
// slot.
func TestComputeUsesAllocatesOnce(t *testing.T) {
	u := usecases.POLKA()
	src, err := u.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(src, u.Entry, u.Args)
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range [][]ir.Stmt{prog.Entry.Body, prog.Entry.Body[len(prog.Entry.Body)-1:]} {
		if n := testing.AllocsPerRun(100, func() { ir.ComputeUses(region) }); n != 1 {
			t.Errorf("ComputeUses of %d statements: %v allocations per call", len(region), n)
		}
	}
}

// refPrecedes is the dependence test of the task graph over the map
// oracle's sets, kept as the reference UseSets.Precedes must agree with.
func refPrecedes(u, o *refUses, live map[*ir.Var]bool, meet func(*ir.Var) bool) bool {
	for v := range u.MatWrites {
		if (o.MatReads[v] || o.MatWrites[v]) && meet(v) {
			return true
		}
	}
	for v := range o.MatWrites {
		if u.MatReads[v] && meet(v) {
			return true
		}
	}
	for v := range u.ScalWrite {
		if live[v] && (o.ScalReads[v] || o.ScalWrite[v]) {
			return true
		}
	}
	for v := range o.ScalWrite {
		if live[v] && u.ScalReads[v] {
			return true
		}
	}
	return false
}

// TestPrecedesMatchesOracle compares the one-pass dependence test with
// the reference on pairs of top-level statements of the corpus, under
// live sets of every scalar, of none, and of every other one, and with a
// meet that rejects every third variable.
func TestPrecedesMatchesOracle(t *testing.T) {
	meet := func(v *ir.Var) bool { _, slot := v.Slot(); return slot%3 != 0 }
	pairs, deps := 0, 0
	passCorpus(t, func(label string, prog *ir.Program) {
		lives := []map[*ir.Var]bool{{}, {}, {}}
		for _, v := range prog.Vars {
			if _, slot := v.Slot(); v.Scalar {
				lives[0][v] = true
				if slot%2 == 0 {
					lives[2][v] = true
				}
			}
		}
		body := prog.Entry.Body
		uses := make([]ir.UseSets, len(body))
		refs := make([]*refUses, len(body))
		for i, s := range body {
			uses[i], refs[i] = ir.ComputeUses(body[i:i+1]), refComputeUses([]ir.Stmt{s})
		}
		for li, live := range lives {
			set := ir.NewVarSet(prog)
			for v := range live {
				set.Add(v)
			}
			for i := range body {
				for j := i + 1; j < len(body) && j < i+12; j++ {
					pairs++
					want := refPrecedes(refs[i], refs[j], live, meet)
					if want {
						deps++
					}
					if got := uses[i].Precedes(uses[j], set, meet); got != want {
						t.Fatalf("%s: statements %d and %d, live set %d: Precedes %v, reference %v", label, i, j, li, got, want)
					}
				}
			}
		}
	})
	if deps == 0 || deps == pairs {
		t.Fatalf("vacuous corpus: %d of %d pairs depend", deps, pairs)
	}
}
