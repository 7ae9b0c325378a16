// Package par implements ARGO's parallel program model construction
// (paper §II-C): the scheduling/mapping result is turned into an
// explicitly parallel program in which synchronizations are explicit
// (signal/wait pairs per cross-core dependence), the final memory address
// mapping of variables and buffers is computed (shared memory and
// per-core scratchpads), and C code following the WCET-aware programming
// model is generated.
//
// The explicit model is what both the system-level WCET analysis and the
// platform simulator consume: tasks are released no earlier than their
// statically computed (interference-inflated) start times, making the
// may-happen-in-parallel windows sound.
package par

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"argo/internal/adl"
	"argo/internal/htg"
	"argo/internal/ir"
	"argo/internal/sched"
	"argo/internal/syswcet"
)

// Space is an address space.
type Space int

// Address spaces.
const (
	SpaceShared Space = iota
	SpaceSPM
)

// Buffer is the placement of one matrix variable. A read-only variable
// promoted to scratchpad and needed by several cores is replicated: one
// Buffer per core, flagged Replica.
type Buffer struct {
	V       *ir.Var
	Spc     Space
	Core    int // owning core for SPM buffers; -1 for shared
	Addr    int // byte offset within its space
	Replica bool
}

// EntryKind tags per-core program entries.
type EntryKind int

// Entry kinds.
const (
	// EntryCompute executes one task (released no earlier than Release).
	EntryCompute EntryKind = iota
	// EntryWait blocks until a signal is posted.
	EntryWait
	// EntrySignal posts a signal.
	EntrySignal
)

// Entry is one element of a core's static program.
type Entry struct {
	Kind EntryKind
	// Task is the task id (EntryCompute).
	Task int
	// Release is the time-triggered earliest start (EntryCompute).
	Release int64
	// Sig is the signal id (EntryWait / EntrySignal).
	Sig int
}

// DMAOp stages one buffer between shared memory and a scratchpad.
type DMAOp struct {
	V     *ir.Var
	Core  int
	Bytes int
	In    bool // true: shared -> SPM (prologue); false: SPM -> shared
}

// Program is the explicitly parallel program.
type Program struct {
	Platform *adl.Platform
	IR       *ir.Program
	Graph    *htg.Graph
	Input    *sched.Input
	Schedule *sched.Schedule
	System   *syswcet.Result

	CoreEntries [][]Entry
	Buffers     []Buffer
	// Demoted lists SPM-promoted variables that had to be placed back in
	// shared memory (accessed by more than one core, or SPM overflow) —
	// the cross-layer feedback the transformation stage gets back.
	Demoted []*ir.Var
	// Signals is the number of allocated signals.
	Signals int
	// PrologueCycles / EpilogueCycles bound the DMA staging phases
	// (serialized on the shared DMA engine).
	PrologueCycles int64
	EpilogueCycles int64
	// DMAIns / DMAOuts are the staging operations in execution order.
	DMAIns  []DMAOp
	DMAOuts []DMAOp

	// cacheSlot is an opaque per-program cache attachment point for
	// downstream consumers (the simulator stores its derived per-task
	// trace cache here), so cached state shares the program's lifetime
	// instead of leaking through package-global registries.
	cacheSlot atomic.Value
}

// CacheSlot returns the program's opaque cache slot. Consumers must
// store a single concrete type and synchronize their own initialization.
func (p *Program) CacheSlot() *atomic.Value { return &p.cacheSlot }

// BoundMakespan is the end-to-end bound including DMA staging phases.
func (p *Program) BoundMakespan() int64 {
	return p.PrologueCycles + p.System.Makespan + p.EpilogueCycles
}

// Build constructs the parallel program model.
func Build(irProg *ir.Program, g *htg.Graph, in *sched.Input, s *sched.Schedule, sys *syswcet.Result, platform *adl.Platform) (*Program, error) {
	p := &Program{
		Platform: platform, IR: irProg, Graph: g, Input: in, Schedule: s, System: sys,
		CoreEntries: make([][]Entry, platform.NumCores()),
	}
	if err := p.placeBuffers(); err != nil {
		return nil, err
	}
	p.buildEntries()
	p.buildDMA()
	return p, nil
}

// access is what the tasks do with one matrix variable.
type access struct {
	cores   []int // the cores whose tasks access it, ascending
	written bool  // some task writes it
}

// accesses summarizes, in one walk over the tasks, which cores access
// each matrix variable and whether any task writes it. A variable no
// task touches reads as the zero access: no cores, no writer.
func (p *Program) accesses() map[*ir.Var]access {
	out := map[*ir.Var]access{}
	for _, n := range p.Graph.Nodes {
		core := p.Schedule.Placements[n.ID].Core
		note := func(v *ir.Var, write bool) bool {
			a := out[v]
			if i, found := slices.BinarySearch(a.cores, core); !found {
				a.cores = slices.Insert(a.cores, i, core)
			}
			a.written = a.written || write
			out[v] = a
			return true
		}
		n.Uses.MatReads().Each(func(v *ir.Var) bool { return note(v, false) })
		n.Uses.MatWrites().Each(func(v *ir.Var) bool { return note(v, true) })
	}
	return out
}

// placeBuffers assigns every matrix variable an address in shared memory
// or in exactly one core's scratchpad, demoting SPM variables that are
// shared between cores or overflow the scratchpad.
func (p *Program) placeBuffers() error {
	vars := p.IR.MatrixVars()
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	spmUsed := make([]int, p.Platform.NumCores())
	sharedUsed := 0
	acc := p.accesses()
	for _, v := range vars {
		a := acc[v]
		cores := a.cores
		place := v.Storage
		owner := -1
		replicate := false
		if place == ir.StorageSPM {
			switch {
			case len(cores) == 1:
				owner = cores[0]
				if spmUsed[owner]+v.SizeBytes() > p.Platform.Cores[owner].SPM.SizeBytes {
					place = ir.StorageShared
					p.Demoted = append(p.Demoted, v)
				}
			case len(cores) == 0:
				// Dead buffer (task merging can orphan temporaries);
				// keep it in shared memory.
				place = ir.StorageShared
				p.Demoted = append(p.Demoted, v)
			case !a.written:
				// Read-only data needed on several cores: replicate one
				// scratchpad copy per accessing core (classic constant /
				// input-table replication) — if every replica fits.
				replicate = true
				for _, c := range cores {
					if spmUsed[c]+v.SizeBytes() > p.Platform.Cores[c].SPM.SizeBytes {
						replicate = false
					}
				}
				if !replicate {
					place = ir.StorageShared
					p.Demoted = append(p.Demoted, v)
				}
			default:
				place = ir.StorageShared
				p.Demoted = append(p.Demoted, v)
			}
		}
		switch {
		case replicate:
			for _, c := range cores {
				p.Buffers = append(p.Buffers, Buffer{V: v, Spc: SpaceSPM, Core: c, Addr: spmUsed[c], Replica: true})
				spmUsed[c] += v.SizeBytes()
			}
		case place == ir.StorageSPM:
			p.Buffers = append(p.Buffers, Buffer{V: v, Spc: SpaceSPM, Core: owner, Addr: spmUsed[owner]})
			spmUsed[owner] += v.SizeBytes()
		default:
			v.Storage = ir.StorageShared
			p.Buffers = append(p.Buffers, Buffer{V: v, Spc: SpaceShared, Core: -1, Addr: sharedUsed})
			sharedUsed += v.SizeBytes()
		}
	}
	if sharedUsed > p.Platform.Shared.SizeBytes {
		return fmt.Errorf("par: shared memory overflow: %d > %d bytes", sharedUsed, p.Platform.Shared.SizeBytes)
	}
	return nil
}

// buildEntries lays out each core's static program with explicit
// synchronization for every cross-core dependence.
func (p *Program) buildEntries() {
	// Signal s synchronizes the s-th cross-core dependence. The signals
	// are bucketed once, in Deps order, by the task that waits for them
	// (bucket t) and by the task that posts them (bucket n+t): bucket b
	// is sigs[off[b]:off[b+1]].
	n := len(p.Schedule.Placements)
	off := make([]int, 2*n+1)
	// Each core's entries: its tasks, a wait per incoming and a signal
	// per outgoing cross-core dependence, carved from one allocation.
	size := make([]int, p.Platform.NumCores())
	for _, pl := range p.Schedule.Placements {
		size[pl.Core]++
	}
	crosses := func(d sched.Dep) bool {
		return p.Schedule.Placements[d.From].Core != p.Schedule.Placements[d.To].Core
	}
	sig := 0
	for _, d := range p.Input.Deps {
		if crosses(d) {
			off[d.To+1]++
			off[n+d.From+1]++
			size[p.Schedule.Placements[d.From].Core]++
			size[p.Schedule.Placements[d.To].Core]++
			sig++
		}
	}
	p.Signals = sig
	for b := 1; b < len(off); b++ {
		off[b] += off[b-1]
	}
	sigs := make([]int, 2*sig)
	next := append([]int(nil), off[:2*n]...)
	sig = 0
	for _, d := range p.Input.Deps {
		if crosses(d) {
			sigs[next[d.To]] = sig
			next[d.To]++
			sigs[next[n+d.From]] = sig
			next[n+d.From]++
			sig++
		}
	}
	all := make([]Entry, 0, n+2*sig)
	for c := 0; c < p.Platform.NumCores(); c++ {
		entries := all[len(all) : len(all) : len(all)+size[c]]
		for _, t := range p.Schedule.CoreOrder(c) {
			for _, s := range sigs[off[t]:off[t+1]] {
				entries = append(entries, Entry{Kind: EntryWait, Sig: s})
			}
			entries = append(entries, Entry{Kind: EntryCompute, Task: t, Release: p.System.Start[t]})
			for _, s := range sigs[off[n+t]:off[n+t+1]] {
				entries = append(entries, Entry{Kind: EntrySignal, Sig: s})
			}
		}
		if len(entries) > 0 {
			p.CoreEntries[c] = entries
			all = all[:len(all)+len(entries)]
		}
	}
}

// buildDMA creates the staging operations for SPM-resident parameters and
// results, and the serialized worst-case bounds of the two phases.
func (p *Program) buildDMA() {
	for _, b := range p.Buffers {
		if b.Spc != SpaceSPM {
			continue
		}
		if b.V.Param {
			op := DMAOp{V: b.V, Core: b.Core, Bytes: b.V.SizeBytes(), In: true}
			p.DMAIns = append(p.DMAIns, op)
			p.PrologueCycles += int64(p.Platform.DMACycles(b.Core, op.Bytes))
		}
		if b.V.Result {
			op := DMAOp{V: b.V, Core: b.Core, Bytes: b.V.SizeBytes(), In: false}
			p.DMAOuts = append(p.DMAOuts, op)
			p.EpilogueCycles += int64(p.Platform.DMACycles(b.Core, op.Bytes))
		}
	}
}

// Validate checks structural sanity: each task appears exactly once, all
// cross-core dependences are synchronized, releases respect the system
// analysis.
func (p *Program) Validate() error {
	seen := make(map[int]int)
	for c, entries := range p.CoreEntries {
		for _, e := range entries {
			if e.Kind != EntryCompute {
				continue
			}
			if p.Schedule.Placements[e.Task].Core != c {
				return fmt.Errorf("par: task %d on core %d but mapped to %d", e.Task, c, p.Schedule.Placements[e.Task].Core)
			}
			seen[e.Task]++
		}
	}
	for t := range p.Input.Tasks {
		if seen[t] != 1 {
			return fmt.Errorf("par: task %d appears %d times", t, seen[t])
		}
	}
	// Every cross-core dependence must have a wait on the consumer core
	// before the consumer task.
	for _, d := range p.Input.Deps {
		cf := p.Schedule.Placements[d.From].Core
		ct := p.Schedule.Placements[d.To].Core
		if cf == ct {
			continue
		}
		// Find matching signal/wait pair.
		found := false
		for _, e := range p.CoreEntries[ct] {
			if e.Kind == EntryWait {
				// Match by scanning the producer core for the signal.
				for _, pe := range p.CoreEntries[cf] {
					if pe.Kind == EntrySignal && pe.Sig == e.Sig {
						found = true
					}
				}
			}
			if e.Kind == EntryCompute && e.Task == d.To {
				break
			}
		}
		if !found {
			return fmt.Errorf("par: unsynchronized cross-core dependence %d->%d", d.From, d.To)
		}
	}
	// SPM buffers must be single-core unless they are read-only replicas.
	acc := p.accesses()
	for _, b := range p.Buffers {
		a := acc[b.V]
		if b.Spc == SpaceSPM && !b.Replica {
			if len(a.cores) > 1 {
				return fmt.Errorf("par: SPM buffer %s accessed by %d cores", b.V.Name, len(a.cores))
			}
		}
		if b.Replica && a.written {
			return fmt.Errorf("par: replicated SPM buffer %s is written", b.V.Name)
		}
	}
	return nil
}
