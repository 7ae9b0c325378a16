// Package sim is the ARGO multi-core platform simulator: a
// discrete-event, trace-driven simulator that executes an explicitly
// parallel program (internal/par) on an ADL platform model with
// scratchpads, a shared-memory interconnect with round-robin/TDM/NoC-port
// arbitration (adl.Port, the definition the analysis charges bound),
// time-triggered task release, signal/wait synchronization, and
// serialized DMA staging phases.
//
// It substitutes for the project's FPGA-prototyped Xentium and Leon3/iNoC
// platforms (see DESIGN.md): the machine model is exactly the one the
// static analyses assume, so simulated behaviour is directly comparable
// to the WCET bounds — measured makespan must never exceed the bound,
// which experiment E2 quantifies as tightness.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"argo/internal/fault"
	"argo/internal/ir"
	"argo/internal/ir/vm"
	"argo/internal/par"
	"argo/internal/wcet"
)

// segment is one step of a task's isolated execution trace: compute for
// Gap cycles, then (unless last) one shared-memory access.
type segment struct {
	Gap    int64
	Access bool
}

// traceMeter builds a task's segment trace during functional execution.
type traceMeter struct {
	model wcet.CostModel
	gap   int64
	segs  []segment
}

func (tm *traceMeter) Ops(n int) { tm.gap += int64(n) * int64(tm.model.OpCycles) }

func (tm *traceMeter) touch(v *ir.Var) {
	if v.Storage == ir.StorageSPM {
		tm.gap += int64(tm.model.SPMLatency)
		return
	}
	tm.segs = append(tm.segs, segment{Gap: tm.gap, Access: true})
	tm.gap = 0
}

func (tm *traceMeter) Read(v *ir.Var)  { tm.touch(v) }
func (tm *traceMeter) Write(v *ir.Var) { tm.touch(v) }

func (tm *traceMeter) finish() []segment {
	segs := append(tm.segs, segment{Gap: tm.gap})
	tm.segs = nil
	tm.gap = 0
	return segs
}

// coreState is one core's cursor through its static program during the
// discrete-event loop (pooled in runState).
type coreState struct {
	time    int64
	entries []par.Entry
	idx     int
	segs    []segment
	segIdx  int
	inTask  int // task id when executing segments, else -1
	// pendingAccess marks that the core has issued a bus request at
	// its current time; serving it is a separate event so the global
	// min-time order equals the bus request order.
	pendingAccess bool
}

// Report is the outcome of one simulation run.
type Report struct {
	// Results are the program's outputs (same shape as ir.Exec.Run).
	Results [][]float64
	// Makespan is the total simulated time including DMA phases.
	Makespan int64
	// ExecSpan is the task-phase span (comparable to syswcet.Makespan).
	ExecSpan int64
	// TaskStart / TaskFinish are actual per-task times (task phase,
	// relative to the end of the DMA prologue).
	TaskStart, TaskFinish []int64
	// BusWaitCycles accumulates arbitration waiting.
	BusWaitCycles int64
	// PrologueCycles / EpilogueCycles are the simulated DMA phases.
	PrologueCycles, EpilogueCycles int64
	// Faults reports what a fault-injected run actually injected (the
	// zero value for uninjected runs).
	Faults fault.Stats
}

// treeWalker routes every simulation's functional phase through the
// ir.Exec tree walker, the differential oracle, instead of the bytecode
// VM. Both engines are bit-identical — results, traces, meter charges
// and errors — so the switch only affects speed and is excluded from
// result-cache keys.
var treeWalker atomic.Bool

// SetTreeWalker selects the tree walker (true) or the bytecode VM (false,
// the default) for every later simulation in the process.
func SetTreeWalker(on bool) { treeWalker.Store(on) }

// Run simulates the parallel program on the given inputs.
//
// Run is reentrant: p is read-only during simulation (all mutable state
// lives in the interpreter instance and local event-loop structures), so
// one compiled program may be simulated from many goroutines at once.
func Run(p *par.Program, args [][]float64) (*Report, error) {
	return RunContext(context.Background(), p, args)
}

// RunContext is Run with cancellation: ctx is checked between functional
// task executions and periodically inside the discrete-event loop, so a
// cancelled or expired context aborts the simulation and returns
// ctx.Err().
func RunContext(ctx context.Context, p *par.Program, args [][]float64) (*Report, error) {
	return run(ctx, p, args, nil, treeWalker.Load())
}

// RunFaulty simulates the parallel program under deterministic fault
// injection (see internal/fault): shared-memory access-latency jitter
// within each access's modeled interference budget, and task execution
// inflation within (or, in the negative-test mode, beyond) the per-task
// WCET bound. A zero spec is bit-identical to RunContext.
func RunFaulty(ctx context.Context, p *par.Program, args [][]float64, spec fault.Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, p, args, fault.New(spec), treeWalker.Load())
}

func run(ctx context.Context, p *par.Program, args [][]float64, inj *fault.Injector, tree bool) (*Report, error) {
	nTasks := len(p.Input.Tasks)
	rep := &Report{
		TaskStart:  make([]int64, nTasks),
		TaskFinish: make([]int64, nTasks),
	}

	// Phase 0: functional execution in dependence (program) order to
	// compute results and extract each task's isolated trace. Tasks with
	// an input-invariant trace replay the program's cached trace and run
	// un-metered (the fast interpreter path); the rest are re-metered.
	// In uninjected VM runs, phase 2 then resumes from the program's
	// recorded loop prefix and only simulates from the first start of a
	// trace-variant task on.
	//
	// The execution engine is the compiled bytecode VM unless tree is
	// set — both produce the same traces, results, and errors, so the
	// trace cache is shared between engines.
	cache := cacheFor(p)
	var cp *vm.Program
	if !tree {
		var err error
		if cp, err = cache.vmProgram(p); err != nil {
			return nil, fmt.Errorf("sim: bytecode compile: %w", err)
		}
	}

	rs := runPool.Get().(*runState)
	defer runPool.Put(rs)
	rs.prepare(p, cp)

	traces := rs.traces
	// Trace-variant tasks are re-executed and re-metered per run —
	// unless this exact input set ran before in VM mode. Execution is
	// deterministic in the entry inputs, so a memo hit supplies both the
	// variant traces and the results; with the invariant traces coming
	// from the trace cache, the whole phase needs no execution at all.
	var memoTraces [][]segment
	var memoResults [][]float64
	var memoKey uint64
	if cp != nil {
		memoTraces, memoResults, memoKey = cache.lookupVariant(args)
	}
	if memoResults != nil {
		for _, n := range p.Graph.Nodes {
			tr := memoTraces[n.ID]
			if tr == nil {
				tr = cache.lookup(n.ID)
			}
			if tr == nil {
				// An invariant trace not yet published (only possible
				// under unusual interleavings): execute normally.
				memoResults = nil
				break
			}
			traces[n.ID] = tr
		}
	}
	if memoResults != nil {
		rep.Results = cloneResults(memoResults)
	} else {
		var initErr error
		if cp != nil {
			initErr = rs.vm.Init(args)
		} else {
			initErr = rs.ex.Init(args)
		}
		if initErr != nil {
			return nil, initErr
		}
		var tm traceMeter
		for _, n := range p.Graph.Nodes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var meter ir.Meter
			tr := cache.lookup(n.ID)
			if tr == nil && memoTraces != nil {
				tr = memoTraces[n.ID]
			}
			if tr == nil {
				core := p.Schedule.Placements[n.ID].Core
				tm.model = wcet.ModelFor(p.Platform, core)
				meter = &tm
			}
			var err error
			if cp != nil {
				rs.vm.SetMeter(meter)
				err = rs.vm.ExecRegion(n.ID)
			} else {
				rs.ex.SetMeter(meter)
				err = rs.ex.ExecBlock(n.Stmts)
			}
			if err != nil {
				return nil, fmt.Errorf("sim: task %d: %v", n.ID, err)
			}
			if tr == nil {
				tr = tm.finish()
				cache.store(n.ID, tr)
			}
			traces[n.ID] = tr
		}
		if cp != nil {
			rs.vm.SetMeter(nil)
			rep.Results = rs.vm.Results()
		} else {
			rs.ex.SetMeter(nil)
			rep.Results = rs.ex.Results()
		}
		if cp != nil && memoTraces == nil {
			cache.storeVariant(memoKey, args, traces, rep.Results)
		}
	}

	// Fault injection: inflate task compute time within the code-level
	// WCET headroom (or beyond the per-task bound in the negative-test
	// mode). Cached traces are shared across runs, so inflation always
	// works on a private copy; the extra cycles land in the final compute
	// segment, leaving the access pattern untouched.
	var perAccessBudget []int64
	var accessIdx []int
	if inj != nil {
		if inj.Spec().ExecInflation > 0 {
			for t := 0; t < nTasks; t++ {
				core := p.Schedule.Placements[t].Core
				// Charge each access as the analysis does: where the
				// interconnect holds a grant longer than an access takes,
				// the isolated latency would understate the task's
				// isolated time and overstate its headroom.
				access := int64(p.Platform.SharedAccessCharge(core))
				segs := traces[t]
				isolated := int64(len(segs)-1) * access
				for _, s := range segs {
					isolated += s.Gap
				}
				extra := inj.ExecExtra(t, isolated, p.Input.Tasks[t].WCET[core], p.System.TaskBound[t])
				if extra <= 0 {
					continue
				}
				inflated := make([]segment, len(segs))
				copy(inflated, segs)
				inflated[len(inflated)-1].Gap += extra
				traces[t] = inflated
			}
		}
		// Per-access jitter budget: the analysis allows every shared
		// access of task t an interference delay for its contender count;
		// injection may consume whatever the arbitration wait left over.
		perAccessBudget = make([]int64, nTasks)
		for t := range perAccessBudget {
			perAccessBudget[t] = int64(p.Platform.AccessInterferenceDelay(p.System.Contenders[t]))
		}
		accessIdx = make([]int, nTasks)
	}

	// Phase 1: DMA prologue (serialized on the shared DMA engine).
	var dmaTime int64
	for _, op := range p.DMAIns {
		dmaTime += int64(p.Platform.DMACycles(op.Core, op.Bytes))
	}
	rep.PrologueCycles = dmaTime

	// Phase 2: conservative discrete-event execution of the core
	// programs (times relative to the end of the prologue).
	port := p.Platform.NewPort()
	cores := rs.cores
	signalTime := rs.signalTime
	posted := rs.posted
	// Uninjected VM runs resume from the program's loop prefix, or record
	// it if none is published yet. Injected runs and the tree walker (the
	// differential oracle) always run the loop from the start.
	resume := inj == nil && cp != nil
	var prefix *loopPrefix
	if resume {
		prefix = cache.prefix.Load()
	}
	record := resume && prefix == nil
	if prefix != nil {
		prefix.restore(cores, signalTime, posted, &port, rep)
	} else {
		for c := range cores {
			cores[c] = coreState{entries: p.CoreEntries[c], inTask: -1}
		}
	}
	events := 0
	for {
		// Pick the runnable core with minimal time (conservative DES),
		// and remember the runner-up's time: the chosen core can then
		// step repeatedly without a rescan while it stays strictly below
		// every other eligible core (no other core could have been
		// picked, and blocked cores only wake on a signal post, which
		// forces a rescan below).
		best := -1
		bestTime := int64(math.MaxInt64)
		second := int64(math.MaxInt64)
		for c := range cores {
			cs := &cores[c]
			if cs.idx >= len(cs.entries) && cs.inTask < 0 {
				continue
			}
			if cs.inTask < 0 && cs.entries[cs.idx].Kind == par.EntryWait {
				if !posted[cs.entries[cs.idx].Sig] {
					continue // blocked
				}
			}
			if cs.time < bestTime {
				second = bestTime
				best = c
				bestTime = cs.time
			} else if cs.time < second {
				second = cs.time
			}
		}
		if best < 0 {
			// All done or deadlock.
			done := true
			for c := range cores {
				if cores[c].idx < len(cores[c].entries) || cores[c].inTask >= 0 {
					done = false
				}
			}
			if !done {
				return nil, fmt.Errorf("sim: deadlock (waiting on never-posted signal)")
			}
			break
		}
		// Step the chosen core until its time reaches the runner-up's
		// (another core could then hold the minimum, or tie with a lower
		// index), it blocks or finishes, or it posts a signal (which may
		// wake a core whose time is below ours). Every exit rescans, so
		// the step order is identical to a scan per event.
		cs := &cores[best]
	step:
		for {
			events++
			if events%4096 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if cs.inTask >= 0 {
				if cs.pendingAccess {
					// Serve the previously issued bus request.
					done, wait := port.Access(best, cs.time)
					if inj != nil {
						// Jitter the access within its remaining modeled
						// interference budget. Only this core's completion
						// moves — the port's state is untouched — so other
						// cores never see interference beyond the model.
						t := cs.inTask
						done += inj.AccessDelay(t, accessIdx[t], perAccessBudget[t]-wait)
						accessIdx[t]++
					}
					cs.time = done
					cs.pendingAccess = false
					cs.segIdx++
					if cs.segIdx == len(cs.segs) {
						rep.TaskFinish[cs.inTask] = cs.time
						cs.inTask = -1
					}
				} else {
					// Execute one compute segment; a trailing access
					// becomes a pending request at the segment's end time.
					seg := cs.segs[cs.segIdx]
					cs.time += seg.Gap
					if seg.Access {
						cs.pendingAccess = true
					} else {
						cs.segIdx++
						if cs.segIdx == len(cs.segs) {
							rep.TaskFinish[cs.inTask] = cs.time
							cs.inTask = -1
						}
					}
				}
			} else if cs.idx >= len(cs.entries) {
				break step // finished
			} else {
				e := cs.entries[cs.idx]
				switch e.Kind {
				case par.EntryWait:
					if !posted[e.Sig] {
						break step // blocked until another core posts
					}
					if t := signalTime[e.Sig]; t > cs.time {
						cs.time = t
					}
					cs.idx++
				case par.EntrySignal:
					posted[e.Sig] = true
					if cs.time > signalTime[e.Sig] {
						signalTime[e.Sig] = cs.time
					}
					cs.idx++
					break step // may wake an earlier-time core
				case par.EntryCompute:
					if record && !cache.invariant[e.Task] {
						cache.recordPrefix(cores, signalTime, posted, port, rep)
						record = false
					}
					if e.Release > cs.time {
						cs.time = e.Release // time-triggered release
					}
					rep.TaskStart[e.Task] = cs.time
					cs.inTask = e.Task
					cs.segs = traces[e.Task]
					cs.segIdx = 0
					cs.idx++
				}
			}
			if cs.time >= second {
				break
			}
		}
	}
	if record {
		cache.recordPrefix(cores, signalTime, posted, port, rep)
	}
	for c := range cores {
		if cores[c].time > rep.ExecSpan {
			rep.ExecSpan = cores[c].time
		}
	}
	rep.BusWaitCycles = port.Waits

	// Phase 3: DMA epilogue.
	var epi int64
	for _, op := range p.DMAOuts {
		epi += int64(p.Platform.DMACycles(op.Core, op.Bytes))
	}
	rep.EpilogueCycles = epi
	rep.Makespan = rep.PrologueCycles + rep.ExecSpan + rep.EpilogueCycles
	if inj != nil {
		rep.Faults = inj.Stats()
	}
	return rep, nil
}

// Violations returns every breach of the analytic bounds in a run as a
// structured report (empty when the run is sound). CheckAgainstBounds is
// the error-valued form that stops at the first breach; this one is what
// fault-injection experiments use so over-bound injection is reported in
// full rather than silently absorbed.
func Violations(p *par.Program, rep *Report) []fault.Violation {
	var out []fault.Violation
	for t := range p.Input.Tasks {
		if rep.TaskStart[t] < p.System.Start[t] {
			out = append(out, fault.Violation{Kind: "task-start", Task: t,
				Observed: rep.TaskStart[t], Bound: p.System.Start[t]})
		}
		if rep.TaskFinish[t] > p.System.Finish[t] {
			out = append(out, fault.Violation{Kind: "task-finish", Task: t,
				Observed: rep.TaskFinish[t], Bound: p.System.Finish[t]})
		}
	}
	if rep.ExecSpan > p.System.Makespan {
		out = append(out, fault.Violation{Kind: "exec-span", Task: -1,
			Observed: rep.ExecSpan, Bound: p.System.Makespan})
	}
	if rep.Makespan > p.BoundMakespan() {
		out = append(out, fault.Violation{Kind: "makespan", Task: -1,
			Observed: rep.Makespan, Bound: p.BoundMakespan()})
	}
	return out
}

// CheckAgainstBounds verifies the soundness contract: every task ran
// within its analyzed window and the measured spans are below the bounds.
func CheckAgainstBounds(p *par.Program, rep *Report) error {
	for t := range p.Input.Tasks {
		if rep.TaskStart[t] < p.System.Start[t] {
			return fmt.Errorf("sim: task %d started at %d before release %d", t, rep.TaskStart[t], p.System.Start[t])
		}
		if rep.TaskFinish[t] > p.System.Finish[t] {
			return fmt.Errorf("sim: task %d finished at %d after bound %d", t, rep.TaskFinish[t], p.System.Finish[t])
		}
	}
	if rep.ExecSpan > p.System.Makespan {
		return fmt.Errorf("sim: exec span %d exceeds system bound %d", rep.ExecSpan, p.System.Makespan)
	}
	if rep.Makespan > p.BoundMakespan() {
		return fmt.Errorf("sim: makespan %d exceeds total bound %d", rep.Makespan, p.BoundMakespan())
	}
	return nil
}
