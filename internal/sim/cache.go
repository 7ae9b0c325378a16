package sim

import (
	"expvar"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"argo/internal/adl"
	"argo/internal/ir"
	"argo/internal/ir/vm"
	"argo/internal/memo"
	"argo/internal/par"
)

// Trace cache hit/miss counters, exported on /debug/vars (argod) next to
// the WCET bound cache counters.
var (
	traceCacheHits   = expvar.NewInt("argo_trace_cache_hits")
	traceCacheMisses = expvar.NewInt("argo_trace_cache_misses")
)

// Variant-trace memo counters: hits are VM-mode runs whose entry inputs
// matched a remembered run, so every trace-variant task replayed its
// memoized trace instead of being re-metered; misses are VM-mode runs
// that metered the variant tasks (and stored the result).
var (
	traceMemoHits   = expvar.NewInt("argo_trace_memo_hits")
	traceMemoMisses = expvar.NewInt("argo_trace_memo_misses")
)

// Bytecode-VM counters: compiles are per parallel program (compile once,
// execute per run), and cache hits/misses count per-run compiled-code
// lookups. All are exported on /debug/vars (argod).
var (
	vmCompiles    = expvar.NewInt("argo_vm_compiles")
	vmCacheHits   = expvar.NewInt("argo_vm_cache_hits")
	vmCacheMisses = expvar.NewInt("argo_vm_cache_misses")
)

// TraceCacheCounters returns the process-wide trace cache statistics.
func TraceCacheCounters() (hits, misses int64) {
	return traceCacheHits.Value(), traceCacheMisses.Value()
}

// TraceMemoCounters returns the process-wide variant-trace memo
// statistics.
func TraceMemoCounters() (hits, misses int64) {
	return traceMemoHits.Value(), traceMemoMisses.Value()
}

// VMCounters returns the process-wide bytecode-VM statistics.
func VMCounters() (compiles, hits, misses int64) {
	return vmCompiles.Value(), vmCacheHits.Value(), vmCacheMisses.Value()
}

// traceCache caches per-task segment traces and the compiled bytecode of
// one parallel program. The key of an entry is (task, cost model); both
// are implicit here because a task's core — and with it its cost model —
// is fixed by the program's schedule, and the cache lives in the
// program's own cache slot (same lifetime and invalidation as the
// program itself). The compiled bytecode is additionally cost-model
// independent: op charges are abstract units and Read/Write carry the
// variable, so the per-core cost model is applied by the meter, exactly
// as in tree-walk execution.
//
// Only tasks whose meter trace is input-invariant (ir.TraceEnv: every
// loop bound and if condition in the region is input-independent where
// it is evaluated, and no while) are cached; all other tasks are
// re-metered on every run, so cached and fresh simulations are
// bit-identical by construction. The slot also holds the event loop's
// prefix up to the first start of a trace-variant task (loopPrefix).
type traceCache struct {
	invariant  []bool // task id -> trace provably input-invariant
	hasVariant bool   // any task needs per-run metering
	mu         sync.RWMutex
	traces     [][]segment // task id -> trace from the first metered run

	// Variant-trace memo: functional execution is deterministic in the
	// entry inputs, so the traces of the trace-variant tasks are a pure
	// function of (program, schedule, inputs) — the first two are fixed
	// per cache slot, which leaves the inputs as the key. Entries are
	// keyed by the input hash but match only by full input comparison,
	// so a hit replays exactly the trace a fresh metered run would
	// record; a hash collision costs a miss, never a wrong trace. An
	// entry (a deep copy of the inputs plus the traces) is stored only on
	// its hash's second sighting (memo.Cache.Admit), so single-shot input
	// sweeps never pay the copy or grow the heap; steady repeat
	// workloads reach all-hits from the third occurrence on. VM-mode
	// only: the tree walker stays the unaccelerated differential oracle.
	variants *memo.Cache[uint64, *memoEntry]

	// Compiled bytecode: one vm.Program with one region per task,
	// compiled on first VM-mode run. When compilation fails, vmErr
	// keeps the error and every VM-mode run of this program returns it.
	vmOnce  sync.Once
	vmReady atomic.Bool
	vmProg  *vm.Program
	vmErr   error

	// The discrete-event loop's prefix, recorded by the first uninjected
	// VM run; one entry, never evicted, the first writer wins.
	prefix atomic.Pointer[loopPrefix]
}

// loopPrefix is the discrete-event loop's state at the first start of a
// trace-variant task in event order, or at the end of the loop when every
// task is trace-invariant. Up to that point the loop has consumed only
// the schedule and invariant traces, so without fault injection the state
// is the same on every run. It is taken at a step-loop iteration
// boundary, where the stepping core is already the (time, index) minimum
// of the eligible cores: the rescan a resumed run starts with picks the
// same core, and the step-until-runner-up argument keeps the event order
// identical to a run from the start. Immutable once published.
type loopPrefix struct {
	cores                 []coreState
	signalTime            []int64
	posted                []bool
	port                  adl.Port
	taskStart, taskFinish []int64
}

// recordPrefix publishes the loop's current state as the program's
// prefix. The first recording wins; every uninjected run reaches the
// same state, so either copy is correct.
func (c *traceCache) recordPrefix(cores []coreState, signalTime []int64, posted []bool, port adl.Port, rep *Report) {
	c.prefix.CompareAndSwap(nil, &loopPrefix{
		cores:      slices.Clone(cores),
		signalTime: slices.Clone(signalTime),
		posted:     slices.Clone(posted),
		port:       port,
		taskStart:  slices.Clone(rep.TaskStart),
		taskFinish: slices.Clone(rep.TaskFinish),
	})
}

// restore loads the prefix into a run's loop state.
func (lp *loopPrefix) restore(cores []coreState, signalTime []int64, posted []bool, port *adl.Port, rep *Report) {
	copy(cores, lp.cores)
	copy(signalTime, lp.signalTime)
	copy(posted, lp.posted)
	*port = lp.port
	copy(rep.TaskStart, lp.taskStart)
	copy(rep.TaskFinish, lp.taskFinish)
}

// memoEntry remembers the variant-task traces and the entry results of
// one run, keyed by the run's entry inputs. Results are memoized for
// the same reason traces are — functional execution is deterministic in
// the inputs — so a hit needs no execution at all: invariant traces
// come from the trace cache, everything else from here. Immutable once
// published.
type memoEntry struct {
	args    [][]float64
	traces  [][]segment // task id -> trace; nil for invariant tasks
	results [][]float64
}

// memoCap bounds the per-program variant-trace memo (and its ghost list
// of sightings to twice that). Sixteen entries cover steady-state
// workloads that cycle through a bounded input set (what-if sessions,
// benchmark frames) without letting pathological input streams grow the
// cache without bound.
const memoCap = 16

// cacheInitMu serializes first-time cache construction per program (the
// slot itself is a lock-free fast path).
var cacheInitMu sync.Mutex

func cacheFor(p *par.Program) *traceCache {
	slot := p.CacheSlot()
	if c, ok := slot.Load().(*traceCache); ok {
		return c
	}
	cacheInitMu.Lock()
	defer cacheInitMu.Unlock()
	if c, ok := slot.Load().(*traceCache); ok {
		return c
	}
	nTasks := len(p.Input.Tasks)
	c := &traceCache{
		invariant: make([]bool, nTasks),
		traces:    make([][]segment, nTasks),
		variants:  memo.New[uint64, *memoEntry](memoCap),
	}
	// The program is final by the time it is simulated: precompute the
	// per-statement meter charges so re-metered (trace-variant) tasks
	// pay a field read instead of an expression walk per statement.
	p.IR.AnnotateOpUnits()
	// Task regions execute in graph order (the same order RunContext
	// replays them), so the staticity environment flows region to region
	// exactly as the interpreter will.
	env := ir.NewTraceEnv(p.IR)
	for _, n := range p.Graph.Nodes {
		c.invariant[n.ID] = env.AdvanceRegion(n.Stmts)
	}
	for _, inv := range c.invariant {
		if !inv {
			c.hasVariant = true
			break
		}
	}
	slot.Store(c)
	return c
}

// argsHash folds the entry inputs into a 64-bit FNV-1a digest, a word at
// a time. Only a prefilter: lookupVariant compares the full inputs.
func argsHash(args [][]float64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, a := range args {
		h = (h ^ uint64(len(a))) * prime
		for _, v := range a {
			h = (h ^ math.Float64bits(v)) * prime
		}
	}
	return h
}

// argsEqual reports bitwise equality of two input sets. Bitwise is
// deliberately finer than numeric equality (-0 vs +0, NaN payloads):
// equal bits guarantee identical execution, unequal bits only cost a
// conservative re-meter.
func argsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// lookupVariant returns the memoized variant-task traces and entry
// results for a run with the given entry inputs (nil if this input set
// must be executed), plus the input hash for a later storeVariant.
func (c *traceCache) lookupVariant(args [][]float64) ([][]segment, [][]float64, uint64) {
	if !c.hasVariant {
		return nil, nil, 0
	}
	h := argsHash(args)
	if e, ok := c.variants.Get(h); ok && argsEqual(e.args, args) {
		traceMemoHits.Add(1)
		return e.traces, e.results, h
	}
	traceMemoMisses.Add(1)
	return nil, nil, h
}

// storeVariant remembers the variant-task traces and entry results of a
// completed run whose lookupVariant missed with input hash h. The first
// sighting of an input hash stores nothing; a repeat sighting copies the
// inputs and results and retains the variant traces into an immutable
// entry under h, replacing whatever h held (the same inputs stored by a
// concurrent run, or colliding ones) and evicting the least recently
// used entry when the memo is full.
func (c *traceCache) storeVariant(h uint64, args [][]float64, traces [][]segment, results [][]float64) {
	if !c.hasVariant || !c.variants.Admit(h) {
		return
	}
	e := &memoEntry{
		args:    make([][]float64, len(args)),
		traces:  make([][]segment, len(traces)),
		results: cloneResults(results),
	}
	for i, a := range args {
		e.args[i] = append([]float64(nil), a...)
	}
	for t, tr := range traces {
		if !c.invariant[t] {
			e.traces[t] = tr
		}
	}
	c.variants.Put(h, e)
}

// vmProgram returns the program's compiled bytecode, compiling it on the
// first VM-mode run, or the error that compilation returned.
func (c *traceCache) vmProgram(p *par.Program) (*vm.Program, error) {
	if c.vmReady.Load() {
		vmCacheHits.Add(1)
		return c.vmProg, c.vmErr
	}
	vmCacheMisses.Add(1)
	c.vmOnce.Do(func() {
		regions := make([][]ir.Stmt, len(p.Input.Tasks))
		for _, n := range p.Graph.Nodes {
			regions[n.ID] = n.Stmts
		}
		vmCompiles.Add(1)
		c.vmProg, c.vmErr = vm.CompileRegions(p.IR, regions)
		c.vmReady.Store(true)
	})
	return c.vmProg, c.vmErr
}

// lookup returns the cached trace for task, or nil if the task must be
// metered (variant trace, or first run).
func (c *traceCache) lookup(task int) []segment {
	if !c.invariant[task] {
		traceCacheMisses.Add(1)
		return nil
	}
	c.mu.RLock()
	tr := c.traces[task]
	c.mu.RUnlock()
	if tr == nil {
		traceCacheMisses.Add(1)
	} else {
		traceCacheHits.Add(1)
	}
	return tr
}

// store remembers the freshly metered trace of an invariant task. The
// first stored trace wins; concurrent runs meter identical traces, so
// either copy is correct.
func (c *traceCache) store(task int, tr []segment) {
	if !c.invariant[task] {
		return
	}
	c.mu.Lock()
	if c.traces[task] == nil {
		c.traces[task] = tr
	}
	c.mu.Unlock()
}

// cloneResults deep-copies an entry-results set: the memo must neither
// retain caller-owned buffers nor hand its own out (reports are mutable
// by their callers).
func cloneResults(results [][]float64) [][]float64 {
	out := make([][]float64, len(results))
	for i, r := range results {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// runState is the pooled mutable state of one simulation run: the
// interpreter (tree walker or bytecode machine), per-core event-loop
// cursors, and the signal tables. With it, the steady-state
// discrete-event loop performs no allocations and no map operations.
type runState struct {
	ex         *ir.Exec
	vm         *vm.Machine
	traces     [][]segment
	cores      []coreState
	signalTime []int64
	posted     []bool
}

var runPool = sync.Pool{New: func() any { return &runState{} }}

// prepare readies the pooled state for one run. cp selects the execution
// engine: non-nil binds the bytecode machine, nil the tree walker.
func (rs *runState) prepare(p *par.Program, cp *vm.Program) {
	if cp != nil {
		if rs.vm == nil {
			rs.vm = vm.NewMachine(cp, nil)
		} else {
			rs.vm.Reset(cp)
		}
	} else {
		if rs.ex == nil {
			rs.ex = ir.NewExec(p.IR, nil)
		} else {
			rs.ex.Reset(p.IR)
		}
	}
	rs.traces = growClear(rs.traces, len(p.Input.Tasks))
	rs.cores = growClear(rs.cores, p.Platform.NumCores())
	rs.signalTime = growClear(rs.signalTime, p.Signals)
	rs.posted = growClear(rs.posted, p.Signals)
}

// growClear returns s with length n and every element zeroed.
func growClear[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
