// Package core is the ARGO tool-chain driver: it wires the complete
// cross-layer flow of paper Figure 1 — scil/Xcos model, IR lowering,
// predictability transformations, hierarchical task graph extraction,
// scheduling/mapping, parallel program model construction, and
// code-level + system-level WCET analysis — and implements the iterative
// optimization through cross-layer feedback of §II-E.
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"

	"argo/internal/adl"
	"argo/internal/htg"
	"argo/internal/ir"
	"argo/internal/par"
	"argo/internal/pass"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/syswcet"
	"argo/internal/transform"
	"argo/internal/wcet"
	"argo/internal/wcet/mc"
)

// Options configures one compilation.
type Options struct {
	// Entry is the scil entry function name.
	Entry string
	// Args are the entry argument specializations.
	Args []ir.ArgSpec
	// Platform is the ADL target.
	Platform *adl.Platform
	// Transforms selects the predictability transformations. If AutoSPM
	// is set, SPM options are derived from the platform and override
	// Transforms.SPM.
	Transforms transform.Options
	AutoSPM    bool
	// Policy selects the scheduler.
	Policy sched.Policy
	// MaxTasks caps graph size via granularity coarsening (0: no cap).
	MaxTasks int
	// FeedbackRounds caps the placement/analysis feedback loop.
	FeedbackRounds int
	// Parallelism bounds how many optimization candidates Optimize
	// evaluates concurrently (0: GOMAXPROCS, 1: serial). Results are
	// bit-identical at every setting.
	Parallelism int
	// WCETEngine selects the code-level WCET engine: "ipet" (or empty,
	// the default), "mc" (exact slicing+model-checking bounds), or
	// "both" (IPET bounds downstream with the exact engine cross-checked
	// on every region — compilation fails if exact > IPET). Engines
	// legitimately produce different bounds, so the selection is part of
	// every WCET-derived cache key.
	WCETEngine string
	// Passes configures the pass manager that executes the pipeline.
	Passes PassOptions
}

// PassOptions configures pass-manager behavior; the zero value is the
// standard configuration (all registered passes, global pass cache).
type PassOptions struct {
	// Disable names transformation passes to skip (see
	// transform.PassNames; structural passes cannot be disabled).
	Disable []string
	// NoCache disables the content-addressed pass-level result cache.
	// Outputs are bit-identical with and without it.
	NoCache bool
	// Cache, when non-nil, replaces the process-global pass cache
	// (pass.Global) for this execution; tests use it to observe a cache
	// no other compile touches. Ignored when NoCache is set. Outputs are
	// bit-identical for every cache choice.
	Cache *pass.Cache
	// OnTiming, when set, observes every completed pass's timing record
	// as soon as it is recorded (sessions stream one event per pass).
	OnTiming func(pass.Timing)
	// DumpAfter dumps the named pass's output artifact to DumpWriter
	// after every execution of that pass (argocc -dump-after).
	DumpAfter  string
	DumpWriter io.Writer
}

// DefaultOptions returns the standard tool-chain configuration for a
// platform.
func DefaultOptions(entry string, args []ir.ArgSpec, platform *adl.Platform) Options {
	chunks := 0
	if platform.NumCores() > 1 {
		chunks = platform.NumCores()
	}
	return Options{
		Entry: entry, Args: args, Platform: platform,
		Transforms:     transform.Options{Fold: true, Hoist: true, ElideInits: true, Fission: true, ParallelChunks: chunks},
		AutoSPM:        true,
		Policy:         sched.ListContentionAware,
		FeedbackRounds: 8,
	}
}

// WCETEngines lists the valid Options.WCETEngine selectors.
func WCETEngines() []string { return []string{"ipet", "mc", "both"} }

// ParseWCETEngine resolves an Options.WCETEngine selector: "ipet" (or
// "", the default), "mc" (the exact engine's bounds), or "both" (IPET
// bounds downstream, the exact engine cross-checked on every region).
// The error message lists the valid selectors, so CLI layers can
// surface it verbatim.
func ParseWCETEngine(spec string) (wcet.Selection, error) {
	switch spec {
	case "", "ipet":
		return wcet.DefaultSelection(), nil
	case "mc":
		return wcet.Selection{Primary: mc.Default, Spec: spec}, nil
	case "both":
		return wcet.Selection{Primary: wcet.IPETEngine, Check: mc.Default, Spec: spec}, nil
	}
	return wcet.Selection{}, fmt.Errorf("wcet: unknown engine %q (valid: %v)", spec, WCETEngines())
}

// Artifacts is everything one compilation produces.
type Artifacts struct {
	Options   Options
	IR        *ir.Program
	Transform transform.Report
	Graph     *htg.Graph
	Input     *sched.Input
	Schedule  *sched.Schedule
	System    *syswcet.Result
	Parallel  *par.Program

	// SequentialWCET is the single-core code-level bound of the whole
	// program (the baseline guaranteed performance).
	SequentialWCET int64
	// FeedbackRounds is how many placement/analysis rounds ran.
	FeedbackRounds int
	// PassTrace is the per-pass instrumentation record of this
	// compilation (wall time, cache outcomes, feedback round), in
	// execution order starting with the front-end passes.
	PassTrace *pass.Trace
}

// Bound is the end-to-end system WCET bound (including DMA staging).
func (a *Artifacts) Bound() int64 { return a.Parallel.BoundMakespan() }

// WCETSpeedup is SequentialWCET / Bound — the guaranteed-performance
// speedup automatic parallelization achieved.
func (a *Artifacts) WCETSpeedup() float64 {
	if a.Bound() == 0 {
		return 0
	}
	return float64(a.SequentialWCET) / float64(a.Bound())
}

// Compile runs the full tool-chain on a checked scil program.
//
// Compile is reentrant: src is never mutated (the IR lowering produces a
// fresh program per call, and all later phases work on that copy), so
// the same *scil.Program may be compiled from many goroutines at once.
func Compile(src *scil.Program, opt Options) (*Artifacts, error) {
	return CompileContext(context.Background(), src, opt)
}

// CompileContext is Compile with cancellation: ctx is checked before the
// pipeline starts and between placement/analysis feedback rounds, so a
// cancelled or expired context stops the compilation at the next stage
// boundary and returns ctx.Err().
func CompileContext(ctx context.Context, src *scil.Program, opt Options) (*Artifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Platform == nil {
		return nil, fmt.Errorf("core: no platform")
	}
	fe, err := newFrontEnd(ctx, src, opt.Entry, opt.Args, opt.Passes)
	if err != nil {
		return nil, err
	}
	// One-shot compile: the front-end IR is private, no clone needed.
	return backEnd(ctx, newManager(opt.Passes), fe.prog, opt, fe.trace)
}

// FrontEnd is the shared result of the source-level phases — model check
// and IR lowering for one (entry, args) specialization. The optimizer's
// candidate ladder varies only back-end options, so the front-end runs
// once and each candidate works on a private clone of its IR.
type FrontEnd struct {
	prog *ir.Program
	// trace holds the front-end pass timings; every candidate's
	// back-end trace is seeded with a copy.
	trace []pass.Timing
}

// newFrontEnd runs the front-end passes (check, lower) under a pass
// manager so they are instrumented and dumpable like every other stage.
func newFrontEnd(ctx context.Context, src *scil.Program, entry string, args []ir.ArgSpec, popt PassOptions) (*FrontEnd, error) {
	c := pass.NewContext(ctx)
	pass.Put(c, keyModel, src)
	if err := newManager(popt).Run(c, checkPass(), lowerPass(entry, args)); err != nil {
		return nil, err
	}
	return &FrontEnd{prog: irProg(c), trace: c.Trace().Passes}, nil
}

// newManager builds the pass manager one pipeline execution uses.
func newManager(popt PassOptions) *pass.Manager {
	m := &pass.Manager{OnTiming: popt.OnTiming}
	switch {
	case popt.NoCache:
	case popt.Cache != nil:
		m.Cache = popt.Cache
	default:
		m.Cache = pass.Global
	}
	if popt.DumpAfter != "" && popt.DumpWriter != nil {
		m.AfterPass = func(p *pass.Pass, c *pass.Context) {
			if popt.DumpAfter == p.Name {
				text := "(no dump available)"
				if p.Dump != nil {
					text = p.Dump(c)
				}
				fmt.Fprintf(popt.DumpWriter, "=== after pass %q (round %d) ===\n%s\n", p.Name, c.Round, text)
			}
		}
	}
	return m
}

// CompileContext runs the per-candidate back-end on a private clone of
// the front-end IR. It is safe to call concurrently: the shared IR is
// only read (during cloning), never mutated.
func (fe *FrontEnd) CompileContext(ctx context.Context, opt Options) (*Artifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Platform == nil {
		return nil, fmt.Errorf("core: no platform")
	}
	return backEnd(ctx, newManager(opt.Passes), fe.prog.Clone(), opt, fe.trace)
}

// spmOptionsFor derives the scratchpad-promotion options AutoSPM uses
// from the platform numbers.
func spmOptionsFor(p *adl.Platform) *transform.SPMOptions {
	return &transform.SPMOptions{
		CapacityBytes:  p.Cores[0].SPM.SizeBytes,
		SharedLatency:  p.MaxSharedAccessIsolated(),
		SPMLatency:     p.Cores[0].SPM.LatencyCycles,
		DMACostPerByte: p.DMA.CyclesPerByte,
	}
}

// backEnd runs everything after lowering on the pass manager:
// predictability transformations, task graph extraction, scheduling,
// parallel program construction, and the placement/analysis feedback
// loop on mgr. prog is owned by the call; feTrace seeds the execution's
// trace with the front-end timings.
func backEnd(ctx context.Context, mgr *pass.Manager, prog *ir.Program, opt Options, feTrace []pass.Timing) (*Artifacts, error) {
	tOpt := opt.Transforms
	if opt.AutoSPM {
		tOpt.SPM = spmOptionsFor(opt.Platform)
	}
	disabled, err := disabledSet(opt.Passes.Disable)
	if err != nil {
		return nil, err
	}
	sel, err := ParseWCETEngine(opt.WCETEngine)
	if err != nil {
		return nil, err
	}
	pl := buildPipeline(opt, tOpt, disabled)

	c := pass.NewContext(ctx)
	c.SeedTrace(feTrace)
	pass.Put(c, keyIR, liveIR(prog))
	rep := &transform.Report{}
	pass.Put(c, keyReport, rep)
	// Every structural and schedule key takes the platform by the digest
	// of its canonical encoding, taken once per compile.
	var canon []byte
	if data, err := adl.Encode(opt.Platform); err == nil {
		d := sha256.Sum256(data)
		canon = d[:]
	}
	pass.Put(c, keyCanon, canon)
	models := make([]wcet.CostModel, opt.Platform.NumCores())
	for i := range models {
		models[i] = wcet.ModelFor(opt.Platform, i)
	}
	pass.Put(c, keyModels, models)
	pass.Put(c, keyEngine, sel)

	// Pre-loop passes: transformations, loop labeling, HTG extraction.
	// Graph structure (task regions, dependences, access ranges) depends
	// only on statement structure and variable identity — never on
	// storage classes — so it is built once; each feedback round clones
	// it and re-runs only the storage-aware annotation.
	if err := mgr.Run(c, pl.pre...); err != nil {
		return nil, err
	}

	rounds := opt.FeedbackRounds
	if rounds <= 0 {
		rounds = 8
	}
	art := &Artifacts{Options: opt}
	// Placement/analysis feedback: buffer placement may demote SPM
	// variables (shared between cores), which changes code-level WCETs —
	// iterate until the storage assignment is stable (paper §II-E:
	// feeding WCET information back to earlier phases).
	for round := 1; ; round++ {
		c.Round = round
		art.FeedbackRounds = round
		if err := mgr.Run(c, pl.loop...); err != nil {
			return nil, err
		}
		if pp := pass.Need(c, keyPar); len(pp.Demoted) > 0 && round < rounds {
			continue
		}
		break
	}
	c.Round = 0
	if err := mgr.Run(c, pl.post...); err != nil {
		return nil, err
	}

	art.IR = irProg(c)
	art.Transform = *rep
	art.Graph = annGraph(c)
	art.Input = pass.Need(c, keyInput)
	art.Schedule = pass.Need(c, keySched)
	art.System = pass.Need(c, keySys)
	art.Parallel = pass.Need(c, keyPar)
	art.SequentialWCET = pass.Need(c, keySeq)
	art.PassTrace = c.Trace()
	return art, nil
}

// scheduleAndAnalyze runs the scheduler and the system-level analysis.
// The contention-aware policy is WCET-guided: both the penalized and the
// plain list schedules are constructed, both are analyzed, and the one
// with the lower system-level bound wins (cross-layer feedback selects
// the mapping, paper §II-E — the construction-time penalty is only a
// heuristic, the analyzed bound is the ground truth).
func scheduleAndAnalyze(in *sched.Input, policy sched.Policy) (*sched.Schedule, *syswcet.Result, error) {
	run := func(p sched.Policy) (*sched.Schedule, *syswcet.Result, error) {
		s, err := sched.Run(in, p)
		if err != nil {
			return nil, nil, err
		}
		sys, err := syswcet.Analyze(in, s)
		if err != nil {
			return nil, nil, err
		}
		return s, sys, nil
	}
	s, sys, err := run(policy)
	if err != nil {
		return nil, nil, err
	}
	if policy == sched.ListContentionAware {
		sObl, sysObl, err := run(sched.ListOblivious)
		if err != nil {
			return nil, nil, err
		}
		if sysObl.Makespan < sys.Makespan {
			s, sys = sObl, sysObl
			s.Policy = sched.ListContentionAware // selection is part of the aware policy
		}
	}
	return s, sys, nil
}

// CompileSource parses, checks, and compiles scil source text.
func CompileSource(source string, opt Options) (*Artifacts, error) {
	return CompileSourceContext(context.Background(), source, opt)
}

// CompileSourceContext is CompileSource with cancellation (see
// CompileContext).
func CompileSourceContext(ctx context.Context, source string, opt Options) (*Artifacts, error) {
	prog, err := scil.Parse(source)
	if err != nil {
		return nil, err
	}
	return CompileContext(ctx, prog, opt)
}
