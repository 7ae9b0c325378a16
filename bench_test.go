// Package bench is the benchmark harness of the reproduction: one
// testing.B benchmark per experiment table (E1..E9, see DESIGN.md §4 and
// EXPERIMENTS.md) plus micro-benchmarks of the tool-chain stages. Run:
//
//	go test -bench=. -benchmem .
//
// The experiment benchmarks report their headline metric via
// b.ReportMetric (speedup, tightness, gap, ...), so the bench output
// regenerates the numbers recorded in EXPERIMENTS.md; cmd/argobench
// prints the full tables.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"argo/internal/adl"
	"argo/internal/cluster"
	"argo/internal/core"
	"argo/internal/experiments"
	"argo/internal/fault"
	"argo/internal/htg"
	"argo/internal/ir"
	"argo/internal/ir/slice"
	"argo/internal/ir/vm"
	"argo/internal/lp"
	"argo/internal/noc"
	"argo/internal/pass"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/session"
	"argo/internal/sim"
	"argo/internal/syswcet"
	"argo/internal/transform"
	"argo/internal/usecases"
	"argo/internal/wcet"
	"argo/internal/wcet/mc"
	"argo/pkg/argo"
)

// BenchmarkE1WCETSpeedup regenerates the E1 table (guaranteed speedup of
// automatic parallelization per use case and core count) and reports the
// best speedup observed.
func BenchmarkE1WCETSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E1([]int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
		b.ReportMetric(best, "best-speedup")
	}
}

// BenchmarkE2Tightness regenerates the E2 table (bound vs worst simulated
// run) and reports the worst (largest) work-tightness ratio.
func BenchmarkE2Tightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E2(10, 4)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.Tightness < 1 {
				b.Fatalf("%s unsound: %f", r.UseCase, r.Tightness)
			}
			if r.WorkTightness > worst {
				worst = r.WorkTightness
			}
		}
		b.ReportMetric(worst, "worst-work-tightness")
	}
}

// BenchmarkE3Contention regenerates the E3 table (contention-aware vs
// oblivious scheduling) and reports the mean oblivious/aware ratio.
func BenchmarkE3Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E3([]int{4, 8})
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.ImprovementRatio
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-oblivious/aware")
	}
}

// BenchmarkE4Transforms regenerates the E4 ablation table and reports the
// mean bound reduction of the best configuration vs none.
func BenchmarkE4Transforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E4(4)
		if err != nil {
			b.Fatal(err)
		}
		byUC := map[string]map[string]int64{}
		for _, r := range rows {
			if byUC[r.UseCase] == nil {
				byUC[r.UseCase] = map[string]int64{}
			}
			byUC[r.UseCase][r.Config] = r.Bound
		}
		sum, n := 0.0, 0
		for _, m := range byUC {
			best := m["none"]
			for _, v := range m {
				if v < best {
					best = v
				}
			}
			sum += float64(m["none"]) / float64(best)
			n++
		}
		b.ReportMetric(sum/float64(n), "mean-none/best")
	}
}

// BenchmarkE5NoC regenerates the E5 table (analytic vs simulated NoC
// latency) and reports the minimum bound/sim slack (must be >= 1).
func BenchmarkE5NoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E5(20000)
		if err != nil {
			b.Fatal(err)
		}
		minSlack := 1e18
		for _, r := range rows {
			if r.SimMax == 0 {
				continue
			}
			s := float64(r.Bound) / float64(r.SimMax)
			if s < minSlack {
				minSlack = s
			}
		}
		if minSlack < 1 {
			b.Fatalf("NoC bound violated: slack %f", minSlack)
		}
		b.ReportMetric(minSlack, "min-bound/sim")
	}
}

// BenchmarkE6Mapping regenerates the E6 table (heuristic vs exact
// mapping) and reports the overall mean optimality gap.
func BenchmarkE6Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E6(5)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.MeanGap
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-gap")
	}
}

// BenchmarkE7Iterative regenerates the E7 table (iterative cross-layer
// optimization) and reports the mean first/best bound improvement.
func BenchmarkE7Iterative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E7(4)
		if err != nil {
			b.Fatal(err)
		}
		first := map[string]int64{}
		best := map[string]int64{}
		for _, r := range rows {
			if _, ok := first[r.UseCase]; !ok && r.Bound > 0 {
				first[r.UseCase] = r.Bound
			}
			best[r.UseCase] = r.BestSoFar
		}
		sum, n := 0.0, 0
		for uc := range first {
			sum += float64(first[uc]) / float64(best[uc])
			n++
		}
		b.ReportMetric(sum/float64(n), "mean-first/best")
	}
}

// BenchmarkE8Arbitration regenerates the E8 table (RR vs TDM bus) and
// reports the mean TDM/RR bound ratio.
func BenchmarkE8Arbitration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E8(4)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += float64(r.TDMBound) / float64(r.RRBound)
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-tdm/rr")
	}
}

// --- micro-benchmarks of the tool-chain stages -------------------------------

// BenchmarkOptimize walks the full default candidate ladder on a 4-core
// platform — the /v1/optimize hot path. The headline perf number of the
// explore/schedule/analyze overhaul (see BENCH_PR2.json).
func BenchmarkOptimize(b *testing.B) {
	u := usecases.POLKA()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(u.Entry, u.Args, adl.XentiumPlatform(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(p, opt, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeNeverSeen walks the same ladder on a model no cache
// has seen each iteration (one perturbed decimal literal): the ladder's
// candidates share only what they compute for each other.
func BenchmarkOptimizeNeverSeen(b *testing.B) {
	u := usecases.POLKA()
	opt := core.DefaultOptions(u.Entry, u.Args, adl.XentiumPlatform(4))
	progs := neverSeen(b, u.Source, b.N)
	pass.Global.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(progs[i], opt, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// neverSeen parses n variants of src, the i-th with its first decimal
// literal scaled by 1+i·2^-40: models no cache has seen, as perfbench's
// compile-cold workload sends them (decimal literals are never loop
// bounds or indices in the use cases).
func neverSeen(b *testing.B, src string, n int) []*scil.Program {
	b.Helper()
	loc := regexp.MustCompile(`[0-9]+\.[0-9]+`).FindStringIndex(src)
	v, err := strconv.ParseFloat(src[loc[0]:loc[1]], 64)
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*scil.Program, n)
	for i := range progs {
		lit := strconv.FormatFloat(v*(1+float64(i+1)*0x1p-40), 'f', -1, 64)
		if progs[i], err = scil.Parse(src[:loc[0]] + lit + src[loc[1]:]); err != nil {
			b.Fatal(err)
		}
	}
	return progs
}

// benchSchedInput builds a deterministic layered DAG scheduling problem.
func benchSchedInput(n, cores int) *sched.Input {
	platform := adl.XentiumPlatform(cores)
	rng := rand.New(rand.NewSource(7))
	in := &sched.Input{Platform: platform}
	for i := 0; i < n; i++ {
		t := sched.Task{ID: i, WCET: make([]int64, cores), SharedAccesses: int64(rng.Intn(200))}
		w := int64(20 + rng.Intn(300))
		for c := range t.WCET {
			t.WCET[c] = w
		}
		in.Tasks = append(in.Tasks, t)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				in.Deps = append(in.Deps, sched.Dep{From: i, To: j, VolumeBytes: rng.Intn(512)})
			}
		}
	}
	return in
}

// BenchmarkListSchedule measures the contention-aware list scheduler on a
// 64-task DAG (the per-feedback-round scheduler cost inside Compile).
func BenchmarkListSchedule(b *testing.B) {
	in := benchSchedInput(64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(in, sched.ListContentionAware); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranchBound measures the exact mapper on a 12-task DAG (the
// E6 workload scale).
func BenchmarkBranchBound(b *testing.B) {
	in := benchSchedInput(12, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(in, sched.BranchBound); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompilePolka(b *testing.B) {
	u := usecases.POLKA()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	platform := adl.XentiumPlatform(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, platform)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateFrame(b *testing.B) {
	u := usecases.POLKA()
	art, err := argo.CompileUseCase(u, argo.Platform("xentium4"))
	if err != nil {
		b.Fatal(err)
	}
	in := u.Inputs(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(art.Parallel, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse lexes and parses each use case's source, the front-end
// work a raw-source compile pays once before its cache lookup.
func BenchmarkParse(b *testing.B) {
	for _, u := range usecases.All() {
		b.Run(u.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := scil.Parse(u.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLowerEGPWS(b *testing.B) {
	u := usecases.EGPWS()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Lower(p, u.Entry, u.Args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStructuralWCET(b *testing.B) {
	u := usecases.EGPWS()
	p, _ := u.Program()
	prog, err := ir.Lower(p, u.Entry, u.Args)
	if err != nil {
		b.Fatal(err)
	}
	m := wcet.ModelFor(adl.XentiumPlatform(4), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wcet.Structural(prog.Entry.Body, m) <= 0 {
			b.Fatal("zero bound")
		}
	}
}

func BenchmarkIPETWCET(b *testing.B) {
	src := `function r = f(v)
  r = 0
  for i = 1:16
    for j = 1:16
      if v(i, j) > 0 then
        r = r + sqrt(v(i, j))
      else
        r = r - v(i, j)
      end
    end
  end
endfunction`
	p, err := scil.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(p, "f", []ir.ArgSpec{ir.MatrixArg(16, 16)})
	if err != nil {
		b.Fatal(err)
	}
	m := wcet.ModelFor(adl.XentiumPlatform(1), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wcet.IPET(prog.Entry.Body, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexLP(b *testing.B) {
	prob := &lp.Problem{Obj: []float64{3, 2, 4, 1, 5}}
	prob.AddLE([]float64{1, 1, 1, 1, 1}, 10)
	prob.AddLE([]float64{2, 1, 0, 3, 1}, 12)
	prob.AddLE([]float64{0, 2, 1, 0, 3}, 9)
	prob.AddGE([]float64{1, 0, 0, 0, 1}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := lp.Solve(prob); s.Status != lp.Optimal {
			b.Fatal(s.Status)
		}
	}
}

func BenchmarkNoCSimulation(b *testing.B) {
	spec := adl.Leon3TilePlatform(4, 4).NoC
	cfg := &noc.Config{Spec: *spec, Flows: []noc.Flow{
		{ID: 0, Src: noc.Coord{X: 0, Y: 0}, Dst: noc.Coord{X: 3, Y: 3}, PacketFlits: 4, PeriodCycles: 200},
		{ID: 1, Src: noc.Coord{X: 1, Y: 0}, Dst: noc.Coord{X: 3, Y: 3}, PacketFlits: 8, PeriodCycles: 260},
		{ID: 2, Src: noc.Coord{X: 0, Y: 1}, Dst: noc.Coord{X: 3, Y: 1}, PacketFlits: 4, PeriodCycles: 220},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noc.Simulate(cfg, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Deployment regenerates the E9 table (multi-application
// cyclic-executive deployment) and reports the 8-core utilization.
func BenchmarkE9Deployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.E9([]string{"xentium8"})
		if err != nil {
			b.Fatal(err)
		}
		if !rows[0].Schedulable {
			b.Fatal("not schedulable")
		}
		b.ReportMetric(rows[0].Utilization, "utilization")
	}
}

// BenchmarkE10Faults regenerates (a slice of) the E10 table — bound
// soundness under deterministic fault injection — and reports how many
// injected runs were checked. Fault injection re-executes the simulator
// per (platform, use case, level, seed) cell, so this is the
// heaviest simulator-bound experiment and the headline E10 wall time.
func BenchmarkE10Faults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, neg, _, err := experiments.E10([]string{"xentium4", "leon3-2x2"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Violations != 0 {
				b.Fatalf("%s/%s unsound under in-budget injection", r.Platform, r.UseCase)
			}
		}
		for _, r := range neg {
			if !r.Flagged {
				b.Fatalf("%s over-bound injection not detected", r.UseCase)
			}
		}
		b.ReportMetric(float64(len(rows)), "cells")
	}
}

// vmBenchProgram lowers the POLKA use case — the program the interpreter
// micro-benchmarks execute.
func vmBenchProgram(b *testing.B) *ir.Program {
	b.Helper()
	u := usecases.POLKA()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(p, u.Entry, u.Args)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkVMExec measures one full IR execution (init, entry body,
// results) through the compiled register-bytecode VM; compilation
// happens once outside the loop — the compile-once/execute-per-run
// contract the simulator relies on.
func BenchmarkVMExec(b *testing.B) {
	prog := vmBenchProgram(b)
	cp, err := vm.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.NewMachine(cp, nil)
	in := usecases.POLKA().Inputs(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Init(in); err != nil {
			b.Fatal(err)
		}
		if err := m.ExecEntry(); err != nil {
			b.Fatal(err)
		}
		if got := m.Results(); len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkVMCompile measures vm.CompileRegions on each use case's
// program compiled for xentium4, over its task regions as the simulator
// builds them: the compile the first simulate of every edited program
// pays.
func BenchmarkVMCompile(b *testing.B) {
	for _, u := range usecases.All() {
		b.Run(u.Name, func(b *testing.B) {
			art, err := argo.CompileUseCase(u, argo.Platform("xentium4"))
			if err != nil {
				b.Fatal(err)
			}
			p := art.Parallel
			regions := make([][]ir.Stmt, len(p.Input.Tasks))
			for _, n := range p.Graph.Nodes {
				regions[n.ID] = n.Stmts
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.CompileRegions(p.IR, regions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeExec is BenchmarkVMExec through the tree-walking oracle —
// the before/after pair quantifying the VM speedup.
func BenchmarkTreeExec(b *testing.B) {
	prog := vmBenchProgram(b)
	ex := ir.NewExec(prog, nil)
	in := usecases.POLKA().Inputs(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.Init(in); err != nil {
			b.Fatal(err)
		}
		if err := ex.ExecBlock(prog.Entry.Body); err != nil {
			b.Fatal(err)
		}
		if got := ex.Results(); len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkSimulate measures end-to-end simulator runs/sec with the
// bytecode VM on the functional phase (the default engine).
func BenchmarkSimulate(b *testing.B) {
	benchSimulate(b)
}

// BenchmarkSimulateUseCases is BenchmarkSimulate for each use case on
// xentium4, a fresh seed per iteration.
func BenchmarkSimulateUseCases(b *testing.B) {
	for _, u := range usecases.All() {
		b.Run(u.Name, func(b *testing.B) { benchSimulateUseCase(b, u) })
	}
}

// BenchmarkSimulateTree is BenchmarkSimulate on the tree walker, selected
// through the process-wide switch.
func BenchmarkSimulateTree(b *testing.B) {
	if err := argo.SetInterp("tree"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = argo.SetInterp("vm") }) // "vm" is always valid
	benchSimulate(b)
}

func benchSimulate(b *testing.B) {
	benchSimulateUseCase(b, usecases.POLKA())
}

func benchSimulateUseCase(b *testing.B, u *usecases.UseCase) {
	art, err := argo.CompileUseCase(u, argo.Platform("xentium4"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A new seed per run is the production shape: every input is
		// fresh, so the variant-trace memo never hits (the repeated-input
		// path is BenchmarkSimulateFrame's), while invariant traces and
		// the loop prefix are warm from the first run on. The program is
		// compiled per call, so seeds never repeat within its lifetime.
		if _, err := sim.Run(art.Parallel, u.Inputs(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// ipetBenchProgram is the loop-nest-with-branches program the IPET
// benchmarks share (the same shape BenchmarkIPETWCET measures).
func ipetBenchProgram(b *testing.B) *ir.Program {
	b.Helper()
	src := `function r = f(v)
  r = 0
  for i = 1:16
    for j = 1:16
      if v(i, j) > 0 then
        r = r + sqrt(v(i, j))
      else
        r = r - v(i, j)
      end
    end
  end
endfunction`
	p, err := scil.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(p, "f", []ir.ArgSpec{ir.MatrixArg(16, 16)})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkIPET measures the IPET path with its allocations: each call
// builds its problem and tableau afresh.
func BenchmarkIPET(b *testing.B) {
	prog := ipetBenchProgram(b)
	m := wcet.ModelFor(adl.XentiumPlatform(1), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wcet.IPET(prog.Entry.Body, m); err != nil {
			b.Fatal(err)
		}
	}
}

// mipBenchProblem is a correlated multi-constraint 0/1 knapsack: value
// ≈ weight makes the LP relaxation fractional along many branches, so
// branch-and-bound explores a real tree.
func mipBenchProblem() *lp.Problem {
	rng := rand.New(rand.NewSource(7))
	n, m := 14, 4
	p := &lp.Problem{Obj: make([]float64, n), Integer: make([]bool, n)}
	rows := make([][]float64, m)
	for j := range rows {
		rows[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		w := float64(3 + rng.Intn(10))
		p.Obj[i] = w + float64(rng.Intn(3))
		p.Integer[i] = true
		for j := range rows {
			rows[j][i] = w + float64(rng.Intn(4))
		}
		unit := make([]float64, n)
		unit[i] = 1
		p.AddLE(unit, 1)
	}
	for j := range rows {
		var sum float64
		for _, w := range rows[j] {
			sum += w
		}
		p.AddLE(rows[j], sum/2)
	}
	return p
}

// BenchmarkSolveMIP measures branch-and-bound, each node solved from
// scratch.
func BenchmarkSolveMIP(b *testing.B) {
	p := mipBenchProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := lp.SolveMIP(p); s.Status != lp.Optimal {
			b.Fatal(s.Status)
		}
	}
}

// syswcetBenchFixture compiles EGPWS down to a schedule, the input the
// system-level WCET benchmarks analyze.
func syswcetBenchFixture(b *testing.B) (*sched.Input, *sched.Schedule) {
	b.Helper()
	platform := adl.XentiumPlatform(4)
	u := usecases.EGPWS()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(p, u.Entry, u.Args)
	if err != nil {
		b.Fatal(err)
	}
	transform.Apply(prog, transform.Options{Fold: true})
	g := htg.Build(prog)
	models := make([]wcet.CostModel, platform.NumCores())
	for c := range models {
		models[c] = wcet.ModelFor(platform, c)
	}
	htg.Annotate(g, models)
	in := sched.FromHTG(g, platform)
	s, err := sched.Run(in, sched.ListContentionAware)
	if err != nil {
		b.Fatal(err)
	}
	return in, s
}

// BenchmarkSysWCET measures the incremental interference fixed point
// (dirty-set propagation, pooled scratch state).
func BenchmarkSysWCET(b *testing.B) {
	in, s := syswcetBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syswcet.Analyze(in, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSysWCETFull recomputes every task's interference in every
// round — the baseline the incremental fixed point is compared against.
func BenchmarkSysWCETFull(b *testing.B) {
	in, s := syswcetBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syswcet.AnalyzeFull(in, s); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionBenchVariants builds the two what-if platform variants the
// session-edit benchmarks alternate between (deep copies of a builtin,
// differing in one ADL parameter).
func sessionBenchVariants(b *testing.B, platName string) (*adl.Platform, *adl.Platform) {
	b.Helper()
	clone := func(v int) *adl.Platform {
		data, err := adl.Encode(adl.Builtin(platName))
		if err != nil {
			b.Fatal(err)
		}
		p, err := adl.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		p.Shared.AccessCycles = v
		return p
	}
	return clone(20), clone(40)
}

// BenchmarkSessionEdit measures the steady-state cost of one interactive
// what-if edit (internal/session): the session alternates between two
// ADL parameter values it has analyzed before, so each edit restores
// the finished variant from the session's result memo. Compare against
// BenchmarkSessionEditCold — the same alternation paid as full cold
// compiles — for the incremental speedup interactive sessions deliver.
func BenchmarkSessionEdit(b *testing.B) {
	uc := usecases.ByName("polka")
	opt := core.DefaultOptions(uc.Entry, uc.Args, adl.Builtin("xentium4"))
	s, _, err := session.New(context.Background(), uc.Source, opt, fault.Spec{})
	if err != nil {
		b.Fatal(err)
	}
	edits := []session.Edit{
		{Op: session.OpSetParam, Param: "shared.access_cycles", Value: 20},
		{Op: session.OpSetParam, Param: "shared.access_cycles", Value: 40},
	}
	// Warm both variants into the session's result memo (the steady
	// state of an interactive loop revisiting configurations).
	for _, e := range edits {
		if _, err := s.Apply(context.Background(), e, session.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	skipped, reran := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Apply(context.Background(), edits[i%2], session.ApplyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		skipped += res.PassesSkipped
		reran += res.PassesReran
	}
	b.StopTimer()
	if total := skipped + reran; total > 0 {
		b.ReportMetric(float64(skipped)/float64(total), "skipped/pass")
	}
}

// BenchmarkSessionEditCold is the no-session baseline for
// BenchmarkSessionEdit: the identical what-if alternation paid as full
// cold pipeline runs (pass caching off), the way a stateless client
// re-submitting /v1/compile without a result-cache hit would.
func BenchmarkSessionEditCold(b *testing.B) {
	uc := usecases.ByName("polka")
	pa, pb := sessionBenchVariants(b, "xentium4")
	opts := []core.Options{
		core.DefaultOptions(uc.Entry, uc.Args, pa),
		core.DefaultOptions(uc.Entry, uc.Args, pb),
	}
	for i := range opts {
		opts[i].Passes.NoCache = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CompileSource(uc.Source, opts[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileFresh measures what a fresh compilation of an
// already-seen configuration costs now that the structural passes
// (build-htg through par-build) snapshot into the process-wide pass
// cache: two compiles warm pass.Global (it stores a snapshot on its
// key's second sighting), then every iteration is a brand-new
// core.Compile (distinct pass.Context, as a new argod request presents)
// restored from the shared tier. Compare BenchmarkCompileFreshCold for
// the uncached cost and BenchmarkCompileNeverSeen for a model seen once.
func BenchmarkCompileFresh(b *testing.B) {
	u := usecases.EGPWS()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(u.Entry, u.Args, adl.XentiumPlatform(4))
	pass.Global.Reset()
	for i := 0; i < 2; i++ {
		if _, err := core.Compile(p, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileNeverSeen is the in-process twin of perfbench's
// compile-cold workload: every iteration compiles a model no cache has
// seen (one perturbed decimal literal) through pass.Global, so every
// cacheable pass but schedule misses and the cache must decide what to
// keep.
func BenchmarkCompileNeverSeen(b *testing.B) {
	u := usecases.EGPWS()
	opt := core.DefaultOptions(u.Entry, u.Args, adl.XentiumPlatform(4))
	progs := neverSeen(b, u.Source, b.N)
	pass.Global.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(progs[i], opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileNeverSeenMix is BenchmarkCompileNeverSeen over
// perfbench compile-cold's mix: it cycles through the 54 base
// configurations (3 use cases × 9 built-in platforms × contention-aware
// and oblivious scheduling), every iteration a model no cache has seen,
// through pass.Global after 400 warm-up compiles have filled it.
func BenchmarkCompileNeverSeenMix(b *testing.B) {
	const warmup = 400
	type config struct {
		u   *usecases.UseCase
		opt core.Options
	}
	var cfgs []config
	for _, u := range usecases.All() {
		for _, name := range adl.BuiltinNames() {
			for _, pol := range []sched.Policy{sched.ListContentionAware, sched.ListOblivious} {
				opt := core.DefaultOptions(u.Entry, u.Args, adl.Builtin(name))
				opt.Policy = pol
				cfgs = append(cfgs, config{u, opt})
			}
		}
	}
	// Each use case's variants, in the order the iterations take them.
	need := map[*usecases.UseCase]int{}
	for k := 0; k < warmup+b.N; k++ {
		need[cfgs[k%len(cfgs)].u]++
	}
	progs := map[*usecases.UseCase][]*scil.Program{}
	for u, n := range need {
		progs[u] = neverSeen(b, u.Source, n)
	}
	compile := func(k int) {
		c := cfgs[k%len(cfgs)]
		p := progs[c.u][0]
		progs[c.u] = progs[c.u][1:]
		if _, err := core.Compile(p, c.opt); err != nil {
			b.Fatal(err)
		}
	}
	pass.Global.Reset()
	for k := 0; k < warmup; k++ {
		compile(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compile(warmup + i)
	}
}

// BenchmarkCompileFreshCold is the cold-path baseline for
// BenchmarkCompileFresh: the identical compilation with the pass cache
// disabled, so every structural pass re-executes each iteration.
func BenchmarkCompileFreshCold(b *testing.B) {
	u := usecases.EGPWS()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(u.Entry, u.Args, adl.XentiumPlatform(4))
	opt.Passes.NoCache = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionEditFresh measures interactive-session bootstrap over
// a warm process: every iteration creates a brand-new session and
// applies one edit. The initial full analysis and the edit restore
// their passes from pass.Global instead of recomputing them — the cost
// a client pays to open a what-if session on a configuration, and make
// an edit, that other clients have made before. Two sessions warm
// pass.Global: the first one's keys are sightings, the second one's
// are stored.
func BenchmarkSessionEditFresh(b *testing.B) {
	uc := usecases.ByName("polka")
	opt := core.DefaultOptions(uc.Entry, uc.Args, adl.Builtin("xentium4"))
	pass.Global.Reset()
	edit := session.Edit{Op: session.OpSetParam, Param: "shared.access_cycles", Value: 30}
	for i := 0; i < 2; i++ {
		warm, _, err := session.New(context.Background(), uc.Source, opt, fault.Spec{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := warm.Apply(context.Background(), edit, session.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := session.New(context.Background(), uc.Source, opt, fault.Spec{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Apply(context.Background(), edit, session.ApplyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// wcetBenchRegion lowers the EGPWS entry region once — the shared
// fixture of the engine benchmarks below, so their numbers compare
// per-engine analysis cost on identical input.
func wcetBenchRegion(b *testing.B) ([]ir.Stmt, wcet.CostModel) {
	b.Helper()
	u := usecases.EGPWS()
	p, err := u.Program()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Lower(p, u.Entry, u.Args)
	if err != nil {
		b.Fatal(err)
	}
	return prog.Entry.Body, wcet.ModelFor(adl.XentiumPlatform(4), 0)
}

// BenchmarkWCETIPET measures one uncached run of the default engine
// (structural bound + access counting) on the EGPWS entry region.
func BenchmarkWCETIPET(b *testing.B) {
	stmts, m := wcetBenchRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := wcet.IPETEngine.Analyze(stmts, m); rep.Cycles <= 0 {
			b.Fatal("zero bound")
		}
	}
}

// BenchmarkWCETMC measures one uncached run of the exact engine (slice +
// abstract timed-state exploration) on the same region — the price of a
// tighter bound relative to BenchmarkWCETIPET.
func BenchmarkWCETMC(b *testing.B) {
	stmts, m := wcetBenchRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := mc.Default.Analyze(stmts, m); rep.Cycles <= 0 {
			b.Fatal("zero bound")
		}
	}
}

// BenchmarkSlice measures the timing-relevant slicer alone (the mc
// engine's first stage).
func BenchmarkSlice(b *testing.B) {
	stmts, _ := wcetBenchRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl := slice.Analyze(stmts)
		if len(sl.Scalars)+len(sl.Mats) == 0 {
			b.Fatal("empty slice")
		}
	}
}

// BenchmarkHashRingOwner measures one rendezvous-hash placement
// decision over a 5-member ring — the per-request cost a coordinator
// pays to pick a key's replica.
func BenchmarkHashRingOwner(b *testing.B) {
	members := make([]string, 5)
	for i := range members {
		members[i] = fmt.Sprintf("http://replica-%d:8321", i)
	}
	ring := cluster.NewRing(members)
	ks := make([]string, 256)
	for i := range ks {
		ks[i] = fmt.Sprintf("sha256:%08x-job-key", i*2654435761)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ring.Owner(ks[i%len(ks)]) == "" {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkClusterForwardHit measures the coordinator's full forwarding
// path (placement, HTTP hop, hot-set recording) against an in-process
// replica that answers instantly — the wire overhead the cluster adds
// on top of the analysis itself.
func BenchmarkClusterForwardHit(b *testing.B) {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer replica.Close()
	c := cluster.New(cluster.Options{Peers: []string{replica.URL}})
	body := []byte(`{"usecase":"polka","platform":"xentium4"}`)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Forward(ctx, fmt.Sprintf("key-%d", i), "/v1/compile", body)
		if err != nil || res.Status != http.StatusOK {
			b.Fatalf("forward: %v %+v", err, res)
		}
	}
}
