// Package argo is the public API of the ARGO WCET-aware parallelization
// tool-chain (DATE 2017, "WCET-Aware Parallelization of Model-Based
// Applications for Multi-Cores: the ARGO Approach").
//
// The tool-chain compiles model-based applications — Xcos-style dataflow
// diagrams and/or programs in a statically analysable Scilab subset —
// into explicitly parallel programs for predictable multi-core platforms,
// together with guaranteed worst-case execution time bounds:
//
//	platform := argo.Platform("xentium4")
//	uc := argo.UseCaseByName("polka")
//	art, err := argo.CompileUseCase(uc, platform)
//	fmt.Println(art.Bound(), art.WCETSpeedup())
//	rep, err := argo.Simulate(art, uc.Inputs(1))
//
// The heavy lifting lives in the internal packages (scil, ir, transform,
// htg, sched, wcet, mhp, syswcet, par, noc, sim, core); this package is a
// stable façade over them.
package argo

import (
	"context"
	"fmt"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/ir"
	"argo/internal/par"
	"argo/internal/pass"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/sim"
	"argo/internal/transform"
	"argo/internal/usecases"
	"argo/internal/xcos"
)

// Re-exported types: the façade uses aliases so values flow freely
// between the public API and the internal packages.
type (
	// PlatformDesc is an ADL platform description.
	PlatformDesc = adl.Platform
	// Options configures a compilation.
	Options = core.Options
	// Artifacts is everything a compilation produces.
	Artifacts = core.Artifacts
	// OptimizeResult is the outcome of the iterative optimization.
	OptimizeResult = core.OptimizeResult
	// Candidate is one configuration of the iterative optimizer.
	Candidate = core.Candidate
	// UseCase is one of the ARGO validation applications.
	UseCase = usecases.UseCase
	// SimReport is a platform-simulation result.
	SimReport = sim.Report
	// FaultSpec selects a deterministic fault-injection scenario for a
	// simulation run (zero value: no injection).
	FaultSpec = fault.Spec
	// FaultStats reports what one faulty run actually injected.
	FaultStats = fault.Stats
	// Violation is one detected breach of the analytic bounds.
	Violation = fault.Violation
	// ArgSpec describes one entry argument.
	ArgSpec = ir.ArgSpec
	// Diagram is an Xcos-style dataflow model.
	Diagram = xcos.Diagram
	// Block is a dataflow block instance.
	Block = xcos.Block
	// Link is a dataflow connection.
	Link = xcos.Link
	// TransformOptions selects predictability transformations.
	TransformOptions = transform.Options
	// ParallelProgram is the explicitly parallel program model.
	ParallelProgram = par.Program
	// PassOptions configures the pass manager executing the pipeline
	// (disable transforms, toggle caching, per-pass dumps).
	PassOptions = core.PassOptions
	// PassDesc describes one registered pipeline pass.
	PassDesc = pass.Desc
	// PassTrace is the per-pass instrumentation record of a compilation
	// (available as Artifacts.PassTrace).
	PassTrace = pass.Trace
	// PassTiming is one entry of a PassTrace.
	PassTiming = pass.Timing
	// Program is a parsed scil model.
	Program = scil.Program
)

// Policy selects the multi-core scheduling strategy.
type Policy = sched.Policy

// Scheduling policies.
const (
	PolicyOblivious       = sched.ListOblivious
	PolicyContentionAware = sched.ListContentionAware
	PolicyBranchBound     = sched.BranchBound
)

// Argument spec helpers.
var (
	// ScalarArg declares a runtime scalar entry argument.
	ScalarArg = ir.ScalarArg
	// ConstArg declares a compile-time-constant scalar argument.
	ConstArg = ir.ConstArg
	// MatrixArg declares a rows x cols matrix argument.
	MatrixArg = ir.MatrixArg
)

// Platform returns a built-in platform by name ("xentium4",
// "xentium8-tdm", "leon3-4x4", ...) or nil.
func Platform(name string) *PlatformDesc { return adl.Builtin(name) }

// PlatformNames lists the built-in platform names.
func PlatformNames() []string { return adl.BuiltinNames() }

// DecodePlatform parses a JSON ADL description.
func DecodePlatform(data []byte) (*PlatformDesc, error) { return adl.Decode(data) }

// EncodePlatform serializes an ADL description to JSON.
func EncodePlatform(p *PlatformDesc) ([]byte, error) { return adl.Encode(p) }

// UseCases returns the three ARGO validation applications.
func UseCases() []*UseCase { return usecases.All() }

// UseCaseByName returns a use case ("egpws", "weaa", "polka") or nil.
func UseCaseByName(name string) *UseCase { return usecases.ByName(name) }

// DefaultOptions returns the standard tool-chain configuration.
func DefaultOptions(entry string, args []ArgSpec, platform *PlatformDesc) Options {
	return core.DefaultOptions(entry, args, platform)
}

// CompileSource compiles scil source text end to end.
//
// All pipeline entry points of this package (CompileSource,
// CompileUseCase, CompileDiagram, Optimize, Simulate, ...) are
// goroutine-safe: compilations never share mutable state, and simulation
// only reads the compiled artifacts, so the same use case, platform, or
// *Artifacts value may be used from many goroutines concurrently.
func CompileSource(source string, opt Options) (*Artifacts, error) {
	return core.CompileSource(source, opt)
}

// CompileSourceContext is CompileSource with cancellation: the pipeline
// checks ctx at stage boundaries and returns ctx.Err() once it is
// cancelled or expired.
func CompileSourceContext(ctx context.Context, source string, opt Options) (*Artifacts, error) {
	return core.CompileSourceContext(ctx, source, opt)
}

// ParseSource parses scil source text into the program it denotes.
// Errors carry the text's line:col positions.
func ParseSource(source string) (*Program, error) { return scil.Parse(source) }

// ProgramDigest content-addresses a parsed program: the SHA-256 of its
// canonical form (scil.Format), so sources that differ only in comments
// and layout share one digest.
func ProgramDigest(p *Program) [32]byte { return scil.Digest(p) }

// CompileProgramContext compiles a parsed program. The compile never
// mutates prog, so one parse may serve any number of concurrent
// compiles.
func CompileProgramContext(ctx context.Context, prog *Program, opt Options) (*Artifacts, error) {
	return core.CompileContext(ctx, prog, opt)
}

// CompileUseCase compiles a use case with default options.
func CompileUseCase(u *UseCase, platform *PlatformDesc) (*Artifacts, error) {
	return CompileUseCaseContext(context.Background(), u, platform)
}

// CompileUseCaseContext is CompileUseCase with cancellation.
func CompileUseCaseContext(ctx context.Context, u *UseCase, platform *PlatformDesc) (*Artifacts, error) {
	p, err := u.Program()
	if err != nil {
		return nil, err
	}
	return core.CompileContext(ctx, p, core.DefaultOptions(u.Entry, u.Args, platform))
}

// CompileDiagram flattens an Xcos-style diagram and compiles it.
func CompileDiagram(d *Diagram, args []ArgSpec, platform *PlatformDesc) (*Artifacts, error) {
	prog, entry, err := d.Flatten()
	if err != nil {
		return nil, err
	}
	return core.Compile(prog, core.DefaultOptions(entry, args, platform))
}

// DefaultCandidates returns the default optimizer ladder for a platform
// with the given core count — the candidate list Optimize evaluates when
// cands is nil. It is exported so distributed coordinators can fan the
// same ladder out to remote candidate workers and reduce identically.
func DefaultCandidates(cores int) []Candidate { return core.DefaultCandidates(cores) }

// Optimize runs the iterative cross-layer optimization over the default
// candidate ladder (or cands when non-nil). Candidates are evaluated
// concurrently on up to baseOpt.Parallelism workers (0: GOMAXPROCS);
// results are bit-identical at every parallelism degree.
func Optimize(source string, baseOpt Options, cands []Candidate) (*OptimizeResult, error) {
	return OptimizeSourceContext(context.Background(), source, baseOpt, cands)
}

// OptimizeSourceContext is Optimize with cancellation: ctx is checked
// before each candidate compilation.
func OptimizeSourceContext(ctx context.Context, source string, baseOpt Options, cands []Candidate) (*OptimizeResult, error) {
	prog, err := scil.Parse(source)
	if err != nil {
		return nil, err
	}
	return OptimizeProgramContext(ctx, prog, baseOpt, cands)
}

// OptimizeProgramContext is OptimizeSourceContext on a parsed program,
// which it never mutates.
func OptimizeProgramContext(ctx context.Context, prog *Program, baseOpt Options, cands []Candidate) (*OptimizeResult, error) {
	return core.OptimizeContext(ctx, prog, baseOpt, cands, 0)
}

// OptimizeUseCase runs the iterative optimization on a use case with
// default options (candidates evaluated on GOMAXPROCS workers).
func OptimizeUseCase(u *UseCase, platform *PlatformDesc) (*OptimizeResult, error) {
	return OptimizeUseCaseContext(context.Background(), u, platform)
}

// OptimizeUseCaseContext is OptimizeUseCase with cancellation: ctx is
// checked before each candidate compilation.
func OptimizeUseCaseContext(ctx context.Context, u *UseCase, platform *PlatformDesc) (*OptimizeResult, error) {
	p, err := u.Program()
	if err != nil {
		return nil, err
	}
	return core.OptimizeContext(ctx, p, core.DefaultOptions(u.Entry, u.Args, platform), nil, 0)
}

// Simulate executes the compiled parallel program on the platform
// simulator with the given inputs.
func Simulate(a *Artifacts, inputs [][]float64) (*SimReport, error) {
	return core.SimulateContext(context.Background(), a, inputs)
}

// SimulateContext is Simulate with cancellation: the simulator checks
// ctx between task executions and periodically inside its event loop.
// The run is adapted as one "simulate" pass, so it shows up in the
// process-wide pass metrics like every pipeline stage.
func SimulateContext(ctx context.Context, a *Artifacts, inputs [][]float64) (*SimReport, error) {
	return core.SimulateContext(ctx, a, inputs)
}

// SimulateFaulty executes the compiled program under deterministic,
// seed-driven fault injection: shared-memory access jitter and NoC link
// stalls within the statically analyzed interference budgets, and task
// execution inflation within (or, for spec.ExecInflation > 1, beyond)
// the per-task WCET bound. A zero spec is bit-identical to Simulate.
func SimulateFaulty(a *Artifacts, inputs [][]float64, spec FaultSpec) (*SimReport, error) {
	return core.SimulateFaultyContext(context.Background(), a, inputs, spec)
}

// SimulateFaultyContext is SimulateFaulty with cancellation.
func SimulateFaultyContext(ctx context.Context, a *Artifacts, inputs [][]float64, spec FaultSpec) (*SimReport, error) {
	return core.SimulateFaultyContext(ctx, a, inputs, spec)
}

// SetInterp selects the process-wide simulator execution engine: "vm"
// (compiled register bytecode, the default) or "tree" (the tree-walking
// oracle). Both are observably bit-identical — results, traces, meter
// charges, and errors — so the choice only affects speed. Returns an
// error for any other mode.
func SetInterp(mode string) error {
	switch mode {
	case "vm":
		sim.SetTreeWalker(false)
	case "tree":
		sim.SetTreeWalker(true)
	default:
		return fmt.Errorf("argo: unknown interpreter %q (want vm or tree)", mode)
	}
	return nil
}

// WCETEngines lists the valid Options.WCETEngine spellings: the two
// code-level WCET engines, "ipet" and "mc", plus "both" (IPET bounds
// with the exact engine cross-checked on every region).
func WCETEngines() []string { return core.WCETEngines() }

// ParseWCETEngine validates an Options.WCETEngine spelling ("", "ipet",
// "mc", "both") without compiling anything — tools use it to reject bad
// flag values before doing work.
func ParseWCETEngine(spec string) error {
	_, err := core.ParseWCETEngine(spec)
	return err
}

// DescribePasses renders the registered pass pipeline the options
// select as a fixed-width table (name, input/output artifact,
// cacheability, feedback-loop membership) — the same listing
// `argocc -passes` prints.
func DescribePasses(opt Options) (string, error) {
	ds, err := core.DescribePipeline(opt)
	if err != nil {
		return "", err
	}
	return pass.FormatDescs(ds), nil
}

// PassNames lists every pass name of the pipeline the options select,
// sorted (nil if the configuration is invalid).
func PassNames(opt Options) []string { return core.PassNames(opt) }

// CheckBounds verifies the soundness contract (measured within bounds)
// for one simulation run.
func CheckBounds(a *Artifacts, rep *SimReport) error {
	return sim.CheckAgainstBounds(a.Parallel, rep)
}

// Violations reports every detected breach of the analytic bounds in a
// simulation run as structured records (empty when the run is sound).
// Under fault injection within the modeled worst case this must stay
// empty; over-bound injection must surface here.
func Violations(a *Artifacts, rep *SimReport) []Violation {
	return sim.Violations(a.Parallel, rep)
}

// Explain renders the cross-layer report of a compilation.
func Explain(a *Artifacts) string { return core.Explain(a) }

// EmitC renders the generated parallel C code.
func EmitC(a *Artifacts) string { return a.Parallel.EmitC() }

// RuntimeHeader returns the argo_rt.h runtime interface the generated C
// code targets.
func RuntimeHeader() string { return par.RuntimeHeader }

// EncodeDiagram serializes a dataflow model to its JSON file format.
func EncodeDiagram(d *Diagram) ([]byte, error) { return xcos.EncodeJSON(d) }

// DecodeDiagram parses and validates a dataflow model file.
func DecodeDiagram(data []byte) (*Diagram, error) { return xcos.DecodeJSON(data) }

// Version identifies the library.
const Version = "1.0.0"

// Describe summarizes a compilation in one line.
func Describe(a *Artifacts) string {
	return fmt.Sprintf("%s on %s: %d tasks on %d cores, system WCET bound %d cycles (%.2fx vs sequential)",
		a.Options.Entry, a.Options.Platform.Name, len(a.Graph.Nodes),
		a.Options.Platform.NumCores(), a.Bound(), a.WCETSpeedup())
}
