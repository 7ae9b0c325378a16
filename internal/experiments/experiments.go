// Package experiments implements the quantitative evaluation suite of
// this reproduction (DESIGN.md §4): the paper itself is a project
// overview without numeric tables, so each experiment validates one of
// its stated objectives and produces the table a full ARGO evaluation
// would have reported. cmd/argobench and bench_test.go drive these;
// EXPERIMENTS.md records the outcomes.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"argo/internal/adl"
	"argo/internal/conc"
	"argo/internal/core"
	"argo/internal/noc"
	"argo/internal/report"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/sim"
	"argo/internal/transform"
	"argo/internal/usecases"
)

// Parallelism bounds how many (use case, configuration) cells the
// experiment tables evaluate concurrently (0: GOMAXPROCS, 1: serial).
// Table contents are deterministic at every setting: cells are
// precomputed, workers store results by cell index, and rows are emitted
// in index order. E5–E7 stay serial — E6 measures wall-clock scheduler
// runtimes, and E7's optimizer ladder already fans out internally.
var Parallelism int

// forEachCell fans n independent experiment cells out on the shared
// worker pool. The context is never cancelled, so the only error is a
// cell's panic, which is re-raised with the stack of its origin.
func forEachCell(n int, fn func(i int)) {
	if err := conc.ForEach(context.Background(), Parallelism, n, fn); err != nil {
		pe := err.(*conc.PanicError)
		panic(fmt.Sprintf("%v\n\n%s", pe.Value, pe.Stack))
	}
}

// firstErr returns the lowest-index error, keeping failure reporting
// deterministic under parallel evaluation.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Result is one experiment's rendered output plus structured data used
// by tests and EXPERIMENTS.md.
type Result struct {
	ID     string
	Claim  string
	Tables []*report.Table
	Notes  []string
}

// String renders the result.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Claim)
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

func compileUC(u *usecases.UseCase, platform *adl.Platform) (*core.Artifacts, error) {
	p, err := u.Program()
	if err != nil {
		return nil, err
	}
	return core.Compile(p, core.DefaultOptions(u.Entry, u.Args, platform))
}

// --- E1: WCET speedup from automatic parallelization ------------------------

// E1Row is one (use case, cores) observation.
type E1Row struct {
	UseCase string
	Cores   int
	Bound   int64
	Speedup float64
}

// E1 measures the guaranteed-performance (WCET-bound) speedup of the
// automatically parallelized programs over the single-core bound, per
// use case and core count.
func E1(coreCounts []int) (*Result, []E1Row, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4, 8, 16}
	}
	res := &Result{
		ID:    "E1",
		Claim: "automatic WCET-aware parallelization improves guaranteed performance (paper §I, §II)",
	}
	tab := report.New("System WCET bound (cycles) and speedup vs 1 core, recore-xentium platform",
		"usecase", "cores", "bound", "speedup")
	type cell struct {
		u *usecases.UseCase
		k int
	}
	var cells []cell
	for _, u := range usecases.All() {
		for _, k := range coreCounts {
			cells = append(cells, cell{u, k})
		}
	}
	bounds := make([]int64, len(cells))
	errs := make([]error, len(cells))
	forEachCell(len(cells), func(i int) {
		art, err := compileUC(cells[i].u, adl.XentiumPlatform(cells[i].k))
		if err != nil {
			errs[i] = fmt.Errorf("E1 %s/%d: %v", cells[i].u.Name, cells[i].k, err)
			return
		}
		bounds[i] = art.Bound()
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	var rows []E1Row
	var base int64
	for i, c := range cells {
		b := bounds[i]
		if c.k == coreCounts[0] {
			base = b
		}
		sp := float64(base) / float64(b)
		tab.Add(c.u.Name, c.k, b, sp)
		rows = append(rows, E1Row{UseCase: c.u.Name, Cores: c.k, Bound: b, Speedup: sp})
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"speedups are sub-linear and flatten as shared-memory interference grows with core count")
	return res, rows, nil
}

// --- E2: bound tightness -----------------------------------------------------

// E2Row is one use case's tightness observation.
type E2Row struct {
	UseCase   string
	Bound     int64
	WorstSim  int64
	Tightness float64 // Bound / WorstSim, >= 1 when sound
	// WorkTightness compares summed per-task bounds against the worst
	// summed actual task durations — the makespan ratio alone hides
	// slack because time-triggered release pins task start times.
	WorkTightness float64
	Runs          int
}

// E2 compares the static system bound against the worst simulated
// execution over a set of deterministic input variants.
func E2(runs int, cores int) (*Result, []E2Row, error) {
	if runs <= 0 {
		runs = 25
	}
	if cores <= 0 {
		cores = 4
	}
	res := &Result{
		ID:    "E2",
		Claim: "WCET bounds are sound and tight vs the platform simulator (paper §I, §III-C)",
	}
	tab := report.New(fmt.Sprintf("Bound vs worst of %d simulated runs, xentium%d", runs, cores),
		"usecase", "bound", "worst-sim", "tightness", "work-tightness", "sound")
	ucs := usecases.All()
	results := make([]E2Row, len(ucs))
	errs := make([]error, len(ucs))
	forEachCell(len(ucs), func(i int) {
		u := ucs[i]
		art, err := compileUC(u, adl.XentiumPlatform(cores))
		if err != nil {
			errs[i] = fmt.Errorf("E2 %s: %v", u.Name, err)
			return
		}
		var boundWork int64
		for _, tb := range art.System.TaskBound {
			boundWork += tb
		}
		var worst, worstWork int64
		for seed := 0; seed < runs; seed++ {
			rep, err := sim.Run(art.Parallel, u.Inputs(int64(seed)))
			if err != nil {
				errs[i] = fmt.Errorf("E2 %s seed %d: %v", u.Name, seed, err)
				return
			}
			if err := sim.CheckAgainstBounds(art.Parallel, rep); err != nil {
				errs[i] = fmt.Errorf("E2 %s seed %d UNSOUND: %v", u.Name, seed, err)
				return
			}
			if rep.Makespan > worst {
				worst = rep.Makespan
			}
			var work int64
			for t := range rep.TaskStart {
				work += rep.TaskFinish[t] - rep.TaskStart[t]
			}
			if work > worstWork {
				worstWork = work
			}
		}
		bound := art.Parallel.BoundMakespan()
		results[i] = E2Row{
			UseCase: u.Name, Bound: bound, WorstSim: worst,
			Tightness:     float64(bound) / float64(worst),
			WorkTightness: float64(boundWork) / float64(worstWork),
			Runs:          runs,
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	var rows []E2Row
	for _, r := range results {
		tab.Add(r.UseCase, r.Bound, r.WorstSim, r.Tightness, r.WorkTightness, r.Bound >= r.WorstSim)
		rows = append(rows, r)
	}
	res.Tables = append(res.Tables, tab)
	return res, rows, nil
}

// --- E3: contention-aware scheduling ----------------------------------------

// E3Row is one (use case, platform, cores) comparison.
type E3Row struct {
	UseCase          string
	Platform         string
	Cores            int
	ObliviousBound   int64
	AwareBound       int64
	ImprovementRatio float64 // oblivious / aware
}

// E3 compares the contention-aware scheduler against the oblivious
// (average-case HEFT) baseline on the system-level bound.
func E3(coreCounts []int) (*Result, []E3Row, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{4, 8, 16}
	}
	res := &Result{
		ID:    "E3",
		Claim: "reducing shared-resource contenders avoids pessimistic WCET (paper §II, §III-C)",
	}
	tab := report.New("System bound: contention-oblivious vs contention-aware (WCET-guided) scheduling",
		"usecase", "platform", "cores", "oblivious", "aware", "oblivious/aware")
	// The standard bus (slot 8) has mild interference; the congested
	// variant (slot 48, e.g. a narrow memory port) makes contenders
	// expensive — where contention-aware mapping matters most.
	mkPlatforms := func(k int) []*adl.Platform {
		std := adl.XentiumPlatform(k)
		congested := adl.XentiumPlatform(k)
		congested.Name = fmt.Sprintf("xentium%d-congested", k)
		congested.Bus.SlotCycles = 48
		return []*adl.Platform{std, congested}
	}
	type cell struct {
		u        *usecases.UseCase
		prog     *scil.Program
		k        int
		platform *adl.Platform
	}
	var cells []cell
	for _, u := range usecases.All() {
		p, err := u.Program()
		if err != nil {
			return nil, nil, err
		}
		for _, k := range coreCounts {
			for _, platform := range mkPlatforms(k) {
				cells = append(cells, cell{u, p, k, platform})
			}
		}
	}
	results := make([]E3Row, len(cells))
	errs := make([]error, len(cells))
	forEachCell(len(cells), func(i int) {
		c := cells[i]
		optO := core.DefaultOptions(c.u.Entry, c.u.Args, c.platform)
		optO.Policy = sched.ListOblivious
		artO, err := core.Compile(c.prog, optO)
		if err != nil {
			errs[i] = err
			return
		}
		optA := core.DefaultOptions(c.u.Entry, c.u.Args, c.platform)
		artA, err := core.Compile(c.prog, optA)
		if err != nil {
			errs[i] = err
			return
		}
		r := E3Row{
			UseCase: c.u.Name, Platform: c.platform.Name, Cores: c.k,
			ObliviousBound: artO.Bound(), AwareBound: artA.Bound(),
		}
		r.ImprovementRatio = float64(r.ObliviousBound) / float64(r.AwareBound)
		results[i] = r
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	var rows []E3Row
	for _, r := range results {
		tab.Add(r.UseCase, r.Platform, r.Cores, r.ObliviousBound, r.AwareBound, r.ImprovementRatio)
		rows = append(rows, r)
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes,
		"the aware policy is WCET-guided (it never selects a schedule with a worse analyzed bound)")
	return res, rows, nil
}

// --- E4: transformation ablation ----------------------------------------------

// E4Row is one (use case, config) bound.
type E4Row struct {
	UseCase string
	Config  string
	Bound   int64
}

// E4 ablates the predictability transformations: none, +fission, +SPM,
// +both.
func E4(cores int) (*Result, []E4Row, error) {
	if cores <= 0 {
		cores = 4
	}
	res := &Result{
		ID:    "E4",
		Claim: "predictability-oriented transformations reduce the WCET bound (paper §II-B, §III-C)",
	}
	tab := report.New(fmt.Sprintf("Transformation ablation, xentium%d", cores),
		"usecase", "config", "bound")
	configs := []struct {
		name    string
		tr      transform.Options
		autoSPM bool
	}{
		{"none", transform.Options{Fold: true}, false},
		{"+fission", transform.Options{Fold: true, Fission: true}, false},
		{"+spm", transform.Options{Fold: true}, true},
		{"+fission+spm", transform.Options{Fold: true, Fission: true}, true},
	}
	type cell struct {
		u    *usecases.UseCase
		prog *scil.Program
		cfg  int
	}
	var cells []cell
	for _, u := range usecases.All() {
		p, err := u.Program()
		if err != nil {
			return nil, nil, err
		}
		for c := range configs {
			cells = append(cells, cell{u, p, c})
		}
	}
	bounds := make([]int64, len(cells))
	errs := make([]error, len(cells))
	forEachCell(len(cells), func(i int) {
		c := cells[i]
		cfg := configs[c.cfg]
		opt := core.DefaultOptions(c.u.Entry, c.u.Args, adl.XentiumPlatform(cores))
		opt.Transforms = cfg.tr
		opt.AutoSPM = cfg.autoSPM
		art, err := core.Compile(c.prog, opt)
		if err != nil {
			errs[i] = fmt.Errorf("E4 %s/%s: %v", c.u.Name, cfg.name, err)
			return
		}
		bounds[i] = art.Bound()
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	var rows []E4Row
	for i, c := range cells {
		tab.Add(c.u.Name, configs[c.cfg].name, bounds[i])
		rows = append(rows, E4Row{UseCase: c.u.Name, Config: configs[c.cfg].name, Bound: bounds[i]})
	}
	res.Tables = append(res.Tables, tab)
	return res, rows, nil
}

// --- E5: NoC latency guarantees ------------------------------------------------

// E5Row is one (load, flow) observation.
type E5Row struct {
	LoadFactor float64
	FlowID     int
	Bound      int64
	SimMax     int64
	Delivered  int
}

// E5 validates the NoC worst-case latency analysis against cycle-level
// simulation across rising load.
func E5(horizon int64) (*Result, []E5Row, error) {
	if horizon <= 0 {
		horizon = 30000
	}
	res := &Result{
		ID:    "E5",
		Claim: "the NoC provides the bandwidth/latency guarantees system-level WCET needs (paper §III-B, §IV-C)",
	}
	spec := adl.Leon3TilePlatform(4, 4).NoC
	baseFlows := []noc.Flow{
		{ID: 0, Src: noc.Coord{X: 0, Y: 0}, Dst: noc.Coord{X: 3, Y: 3}, PacketFlits: 4, PeriodCycles: 400},
		{ID: 1, Src: noc.Coord{X: 1, Y: 0}, Dst: noc.Coord{X: 3, Y: 3}, PacketFlits: 8, PeriodCycles: 520},
		{ID: 2, Src: noc.Coord{X: 2, Y: 0}, Dst: noc.Coord{X: 3, Y: 3}, PacketFlits: 2, PeriodCycles: 360},
		{ID: 3, Src: noc.Coord{X: 0, Y: 1}, Dst: noc.Coord{X: 3, Y: 1}, PacketFlits: 4, PeriodCycles: 440},
		{ID: 4, Src: noc.Coord{X: 0, Y: 2}, Dst: noc.Coord{X: 3, Y: 2}, PacketFlits: 8, PeriodCycles: 620},
	}
	tab := report.New("Analytic worst-case vs simulated max packet latency (cycles), 4x4 WRR mesh",
		"load", "flow", "bound", "sim-max", "delivered", "sound")
	var rows []E5Row
	for _, load := range []float64{0.25, 0.5, 1.0} {
		flows := make([]noc.Flow, len(baseFlows))
		copy(flows, baseFlows)
		for i := range flows {
			flows[i].PeriodCycles = int(float64(flows[i].PeriodCycles) / load)
		}
		cfg := &noc.Config{Spec: *spec, Flows: flows}
		simres, err := noc.Simulate(cfg, horizon)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range flows {
			wc, err := cfg.WorstCaseLatency(f.ID)
			if err != nil {
				return nil, nil, err
			}
			r := E5Row{
				LoadFactor: load, FlowID: f.ID, Bound: wc,
				SimMax: simres.MaxLatency[f.ID], Delivered: simres.Delivered[f.ID],
			}
			tab.Add(fmt.Sprintf("%.2f", load), f.ID, wc, r.SimMax, r.Delivered, wc >= r.SimMax)
			rows = append(rows, r)
		}
	}
	res.Tables = append(res.Tables, tab)
	res.Notes = append(res.Notes, "load scales injection rate; bounds hold at every schedulable load level")
	return res, rows, nil
}

// --- E6: exact vs heuristic mapping ---------------------------------------------

// E6Row is one problem-size observation (averaged over instances).
type E6Row struct {
	Tasks         int
	Cores         int
	MeanGap       float64 // heuristic makespan / optimal makespan
	MaxGap        float64
	HeuristicUS   int64 // mean microseconds
	BranchBoundUS int64
}

// E6 quantifies the optimality gap of the list-scheduling heuristic vs
// the branch-and-bound mapper on random layered task graphs, and their
// runtimes.
func E6(instances int) (*Result, []E6Row, error) {
	if instances <= 0 {
		instances = 10
	}
	res := &Result{
		ID:    "E6",
		Claim: "NP-hard mapping: exact techniques + heuristics combination (paper §III-C)",
	}
	tab := report.New("Heuristic vs exact (branch-and-bound) mapping on random task graphs",
		"tasks", "cores", "mean-gap", "max-gap", "heur-us", "bb-us")
	var rows []E6Row
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{6, 8, 10, 12} {
		for _, k := range []int{2, 3} {
			var sumGap, maxGap float64
			var heurDur, bbDur time.Duration
			for inst := 0; inst < instances; inst++ {
				in := randomDAG(rng, n, k)
				t0 := time.Now()
				h, err := sched.Run(in, sched.ListContentionAware)
				if err != nil {
					return nil, nil, err
				}
				heurDur += time.Since(t0)
				t1 := time.Now()
				b, err := sched.Run(in, sched.BranchBound)
				if err != nil {
					return nil, nil, err
				}
				bbDur += time.Since(t1)
				gap := float64(h.Makespan) / float64(b.Makespan)
				sumGap += gap
				if gap > maxGap {
					maxGap = gap
				}
			}
			r := E6Row{
				Tasks: n, Cores: k,
				MeanGap:       sumGap / float64(instances),
				MaxGap:        maxGap,
				HeuristicUS:   heurDur.Microseconds() / int64(instances),
				BranchBoundUS: bbDur.Microseconds() / int64(instances),
			}
			tab.Add(n, k, r.MeanGap, r.MaxGap, r.HeuristicUS, r.BranchBoundUS)
			rows = append(rows, r)
		}
	}
	res.Tables = append(res.Tables, tab)
	return res, rows, nil
}

// randomDAG builds a random layered scheduling problem.
func randomDAG(rng *rand.Rand, n, cores int) *sched.Input {
	platform := adl.XentiumPlatform(cores)
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

// --- E7: iterative cross-layer optimization --------------------------------------

// E7Row is one iteration of the optimizer for one use case.
type E7Row struct {
	UseCase   string
	Iteration int
	Config    string
	Bound     int64
	BestSoFar int64
}

// E7 records the iterative optimization trajectory per use case: the
// best-so-far bound must be monotone non-increasing.
func E7(cores int) (*Result, []E7Row, error) {
	if cores <= 0 {
		cores = 4
	}
	res := &Result{
		ID:    "E7",
		Claim: "iterative WCET feedback resolves the phase-ordering problem (paper §II-E)",
	}
	tab := report.New(fmt.Sprintf("Iterative cross-layer optimization, xentium%d", cores),
		"usecase", "iter", "config", "bound", "best-so-far")
	var rows []E7Row
	for _, u := range usecases.All() {
		p, err := u.Program()
		if err != nil {
			return nil, nil, err
		}
		opt := core.DefaultOptions(u.Entry, u.Args, adl.XentiumPlatform(cores))
		ores, err := core.Optimize(p, opt, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		for _, rec := range ores.History {
			bound := rec.Bound
			if rec.Err != nil {
				bound = -1
			}
			tab.Add(u.Name, rec.Iteration, rec.Candidate.Name, bound, rec.BestSoFar)
			rows = append(rows, E7Row{
				UseCase: u.Name, Iteration: rec.Iteration,
				Config: rec.Candidate.Name, Bound: bound, BestSoFar: rec.BestSoFar,
			})
		}
	}
	res.Tables = append(res.Tables, tab)
	return res, rows, nil
}

// --- E8: arbitration policy comparison (bonus ablation) ---------------------------

// E8Row compares bus arbitration policies.
type E8Row struct {
	UseCase  string
	RRBound  int64
	TDMBound int64
}

// E8 contrasts round-robin and TDM arbitration (the architecture-design
// guideline trade-off of paper §III-B): TDM is fully composable but
// pays for every access; RR is load-dependent but tighter here.
func E8(cores int) (*Result, []E8Row, error) {
	if cores <= 0 {
		cores = 4
	}
	res := &Result{
		ID:    "E8",
		Claim: "predictable-interconnect design choices change the bound (paper §III-B)",
	}
	tab := report.New(fmt.Sprintf("Round-robin vs TDM shared bus, %d cores", cores),
		"usecase", "rr-bound", "tdm-bound", "tdm/rr")
	ucs := usecases.All()
	results := make([]E8Row, len(ucs))
	errs := make([]error, len(ucs))
	forEachCell(len(ucs), func(i int) {
		u := ucs[i]
		artRR, err := compileUC(u, adl.XentiumPlatform(cores))
		if err != nil {
			errs[i] = err
			return
		}
		artTDM, err := compileUC(u, adl.XentiumTDMPlatform(cores))
		if err != nil {
			errs[i] = err
			return
		}
		results[i] = E8Row{UseCase: u.Name, RRBound: artRR.Bound(), TDMBound: artTDM.Bound()}
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	var rows []E8Row
	for _, r := range results {
		tab.Add(r.UseCase, r.RRBound, r.TDMBound, float64(r.TDMBound)/float64(r.RRBound))
		rows = append(rows, r)
	}
	res.Tables = append(res.Tables, tab)
	return res, rows, nil
}

// All runs every experiment at default sizes.
func All() ([]*Result, error) {
	var out []*Result
	r1, _, err := E1(nil)
	if err != nil {
		return nil, err
	}
	out = append(out, r1)
	r2, _, err := E2(0, 0)
	if err != nil {
		return nil, err
	}
	out = append(out, r2)
	r3, _, err := E3(nil)
	if err != nil {
		return nil, err
	}
	out = append(out, r3)
	r4, _, err := E4(0)
	if err != nil {
		return nil, err
	}
	out = append(out, r4)
	r5, _, err := E5(0)
	if err != nil {
		return nil, err
	}
	out = append(out, r5)
	r6, _, err := E6(0)
	if err != nil {
		return nil, err
	}
	out = append(out, r6)
	r7, _, err := E7(0)
	if err != nil {
		return nil, err
	}
	out = append(out, r7)
	r8, _, err := E8(0)
	if err != nil {
		return nil, err
	}
	out = append(out, r8)
	r9, _, err := E9(nil)
	if err != nil {
		return nil, err
	}
	out = append(out, r9)
	r10, _, _, _, err := E10(nil)
	if err != nil {
		return nil, err
	}
	out = append(out, r10)
	r11, _, _, err := E11(nil)
	if err != nil {
		return nil, err
	}
	out = append(out, r11)
	return out, nil
}
