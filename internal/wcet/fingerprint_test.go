package wcet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"argo/internal/ir"
	"argo/internal/scil"
	"argo/internal/transform"
	"argo/internal/usecases"
)

// refWriter is the name-based encoder the fingerprints replaced: it
// writes a variable's full descriptor at every reference. Kept as the
// oracle whose equality relation the fingerprints must keep.
type refWriter struct{ buf []byte }

func (w *refWriter) byte(b byte)  { w.buf = append(w.buf, b) }
func (w *refWriter) str(s string) { w.buf = append(w.buf, s...); w.byte(0) }
func (w *refWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *refWriter) variable(v *ir.Var) {
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

func (w *refWriter) expr(e ir.Expr) {
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

func (w *refWriter) block(stmts []ir.Stmt) {
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
	w.byte(0)
}

func refFingerprintRegion(stmts []ir.Stmt) Fingerprint {
	var w refWriter
	w.block(stmts)
	return sha256.Sum256(w.buf)
}

func refFingerprintProgram(prog *ir.Program) Fingerprint {
	var w refWriter
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
	return sha256.Sum256(w.buf)
}

// relation checks that two fingerprints induce one equality relation
// on a set of items: each value of one maps to exactly one value of the
// other.
type relation struct {
	toNew, toRef map[Fingerprint]Fingerprint
	items        int
}

func newRelation() *relation {
	return &relation{toNew: map[Fingerprint]Fingerprint{}, toRef: map[Fingerprint]Fingerprint{}}
}

func (r *relation) add(ref, fp Fingerprint) error {
	r.items++
	if n, ok := r.toNew[ref]; ok && n != fp {
		return fmt.Errorf("oracle-equal items fingerprint apart")
	}
	if o, ok := r.toRef[fp]; ok && o != ref {
		return fmt.Errorf("oracle-distinct items share a fingerprint")
	}
	r.toNew[ref], r.toRef[fp] = fp, ref
	return nil
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

// regionsOf returns every statement list of prog's entry function, each
// of its suffixes, and each single statement.
func regionsOf(prog *ir.Program) [][]ir.Stmt {
	lists := [][]ir.Stmt{prog.Entry.Body}
	ir.WalkStmts(prog.Entry.Body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.For:
			lists = append(lists, st.Body)
		case *ir.While:
			lists = append(lists, st.Body)
		case *ir.If:
			lists = append(lists, st.Then, st.Else)
		}
		return true
	})
	var out [][]ir.Stmt
	for _, list := range lists {
		for from := range list {
			out = append(out, list[from:], list[from:from+1])
		}
	}
	return out
}

// TestFingerprintsKeepOracleEquality: over every pair of programs, and
// every pair of regions, of the corpus, the fingerprints are equal
// exactly when the name-based oracle's are.
func TestFingerprintsKeepOracleEquality(t *testing.T) {
	progs, regions := newRelation(), newRelation()
	passCorpus(t, func(label string, prog *ir.Program) {
		if err := progs.add(refFingerprintProgram(prog), FingerprintProgram(prog)); err != nil {
			t.Fatalf("%s: program: %v", label, err)
		}
		for ri, r := range regionsOf(prog) {
			if err := regions.add(refFingerprintRegion(r), FingerprintRegion(r)); err != nil {
				t.Fatalf("%s region %d: %v", label, ri, err)
			}
		}
	})
	// Shared content is what the relation is about: the corpus must hold
	// many equal pairs, not only distinct items.
	if progs.items-len(progs.toNew) < 100 || regions.items-len(regions.toNew) < 10000 {
		t.Fatalf("thin corpus: %d programs in %d classes, %d regions in %d classes",
			progs.items, len(progs.toNew), regions.items, len(regions.toNew))
	}
}

// TestFingerprintsWithoutSlots covers variables with no slot in the
// program or region at hand: an unregistered twin of a registered
// variable fingerprints like it wherever the oracle cannot tell them
// apart, and a variable of another program is matched the same way.
func TestFingerprintsWithoutSlots(t *testing.T) {
	build := func() (*ir.Program, *ir.Var, *ir.Var) {
		p := &ir.Program{Entry: &ir.Func{Name: "f"}}
		x := p.NewVar(&ir.Var{Name: "x", Scalar: true, Rows: 1, Cols: 1})
		m := p.NewVar(&ir.Var{Name: "m", Rows: 2, Cols: 2, Storage: ir.StorageShared})
		return p, x, m
	}
	set := func(dst *ir.Var, src ir.Expr) ir.Stmt { return &ir.AssignScalar{Dst: dst, Src: src} }
	ref := func(v *ir.Var) ir.Expr { return &ir.VarRef{V: v} }
	elem := func(m, i *ir.Var) ir.Expr { return &ir.Index{V: m, Idx: []ir.Expr{ref(i)}} }
	twin := func(v *ir.Var) *ir.Var {
		return &ir.Var{Name: v.Name, Scalar: v.Scalar, Rows: v.Rows, Cols: v.Cols, Storage: v.Storage}
	}

	p, x, m := build()
	q, qx, qm := build()
	tx, tm := twin(x), twin(m)
	y := &ir.Var{Name: "y", Scalar: true, Rows: 1, Cols: 1}
	bodies := map[string][]ir.Stmt{
		"registered":        {set(x, elem(m, x)), set(x, ref(x))},
		"twins":             {set(tx, elem(tm, tx)), set(tx, ref(tx))},
		"twin after":        {set(x, elem(m, tx)), set(tx, ref(x))},
		"twin first":        {set(tx, elem(tm, x)), set(x, ref(tx))},
		"other program":     {set(qx, elem(qm, qx)), set(x, ref(qx))},
		"unmatched":         {set(y, elem(m, x)), set(x, ref(y))},
		"unmatched, others": {set(y, elem(qm, qx)), set(x, ref(y))},
	}
	progRel, regionRel := newRelation(), newRelation()
	for name, body := range bodies {
		for _, prog := range []*ir.Program{p, q} {
			prog.Entry.Body = body
			if err := progRel.add(refFingerprintProgram(prog), FingerprintProgram(prog)); err != nil {
				t.Errorf("%s: program: %v", name, err)
			}
		}
		for i := range body {
			for _, r := range [][]ir.Stmt{body, body[i:], body[:i+1]} {
				if err := regionRel.add(refFingerprintRegion(r), FingerprintRegion(r)); err != nil {
					t.Errorf("%s: region: %v", name, err)
				}
			}
		}
	}
	if len(progRel.toNew) != 2 {
		t.Errorf("%d program classes, want 2 (twins and other programs' variables match)", len(progRel.toNew))
	}
}

// TestRegionNumberingSurvivesGenerationWrap runs the region numbering
// across the wrap of its generation counter: a table entry left from
// generation 1 must not read as numbered when the counter wraps back to
// it.
func TestRegionNumberingSurvivesGenerationWrap(t *testing.T) {
	prog := compile(t, `
function r = f(m)
  r = 0
  for i = 1:4
    r = r + m(i, i)
  end
endfunction`, "f", ir.MatrixArg(4, 4))
	body := prog.Entry.Body
	fresh := func(r []ir.Stmt) Fingerprint { return (&fpWriter{}).fingerprintRegion(r) }
	w := &fpWriter{}
	w.fingerprintRegion(body) // generation 1 numbers every variable
	w.gen = math.MaxUint32 - 1
	// The last generation before the wrap renumbers only the first
	// statement's variables; the others keep entries of generation 1.
	for i, r := range [][]ir.Stmt{body[:1], body, body[1:], body} {
		if got, want := w.fingerprintRegion(r), fresh(r); got != want {
			t.Fatalf("region %d at generation %d: fingerprint differs from a fresh writer's", i, w.gen)
		}
	}
	if w.gen != 3 {
		t.Fatalf("generation %d after the wrap, want 3", w.gen)
	}
}

// TestFingerprintsAllocateNothing pins that a fingerprint in steady
// state allocates nothing: the writer, its buffer and its numbering
// table come from the pool.
func TestFingerprintsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	u := usecases.POLKA()
	src, err := u.Program()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Lower(src, u.Entry, u.Args)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { FingerprintProgram(prog) }); n != 0 {
		t.Errorf("FingerprintProgram: %v allocations per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { FingerprintRegion(prog.Entry.Body) }); n != 0 {
		t.Errorf("FingerprintRegion: %v allocations per run", n)
	}
}
