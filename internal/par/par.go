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

// accessingCores returns the set of cores whose tasks access v.
func (p *Program) accessingCores(v *ir.Var) map[int]bool {
	cores := map[int]bool{}
	for _, n := range p.Graph.Nodes {
		if n.Uses.MatReads().Has(v) || n.Uses.MatWrites().Has(v) {
			cores[p.Schedule.Placements[n.ID].Core] = true
		}
	}
	return cores
}

// placeBuffers assigns every matrix variable an address in shared memory
// or in exactly one core's scratchpad, demoting SPM variables that are
// shared between cores or overflow the scratchpad.
func (p *Program) placeBuffers() error {
	vars := p.IR.MatrixVars()
	sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	spmUsed := make([]int, p.Platform.NumCores())
	sharedUsed := 0
	for _, v := range vars {
		cores := p.accessingCores(v)
		place := v.Storage
		owner := -1
		replicate := false
		if place == ir.StorageSPM {
			switch {
			case len(cores) == 1:
				for c := range cores {
					owner = c
				}
				if spmUsed[owner]+v.SizeBytes() > p.Platform.Cores[owner].SPM.SizeBytes {
					place = ir.StorageShared
					p.Demoted = append(p.Demoted, v)
				}
			case len(cores) == 0:
				// Dead buffer (task merging can orphan temporaries);
				// keep it in shared memory.
				place = ir.StorageShared
				p.Demoted = append(p.Demoted, v)
			case p.readOnly(v):
				// Read-only data needed on several cores: replicate one
				// scratchpad copy per accessing core (classic constant /
				// input-table replication) — if every replica fits.
				replicate = true
				for c := range cores {
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
			var cs []int
			for c := range cores {
				cs = append(cs, c)
			}
			sort.Ints(cs)
			for _, c := range cs {
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

// readOnly reports whether no task writes v.
func (p *Program) readOnly(v *ir.Var) bool {
	for _, n := range p.Graph.Nodes {
		if n.Uses.MatWrites().Has(v) {
			return false
		}
	}
	return true
}

// BufferFor returns the placement of v, or nil.
func (p *Program) BufferFor(v *ir.Var) *Buffer {
	for i := range p.Buffers {
		if p.Buffers[i].V == v {
			return &p.Buffers[i]
		}
	}
	return nil
}

// buildEntries lays out each core's static program with explicit
// synchronization for every cross-core dependence.
func (p *Program) buildEntries() {
	sig := 0
	// Allocate one signal per cross-core dependence.
	type depSig struct {
		d   sched.Dep
		sig int
	}
	depSigs := make([]depSig, 0, len(p.Input.Deps))
	// Each core's entries: its tasks, a wait per incoming and a signal
	// per outgoing cross-core dependence, carved from one allocation.
	size := make([]int, p.Platform.NumCores())
	for _, pl := range p.Schedule.Placements {
		size[pl.Core]++
	}
	for _, d := range p.Input.Deps {
		from, to := p.Schedule.Placements[d.From].Core, p.Schedule.Placements[d.To].Core
		if from != to {
			depSigs = append(depSigs, depSig{d: d, sig: sig})
			sig++
			size[from]++
			size[to]++
		}
	}
	p.Signals = sig
	all := make([]Entry, 0, len(p.Schedule.Placements)+2*sig)
	for c := 0; c < p.Platform.NumCores(); c++ {
		entries := all[len(all) : len(all) : len(all)+size[c]]
		for _, t := range p.Schedule.CoreOrder(c) {
			for _, ds := range depSigs {
				if ds.d.To == t {
					entries = append(entries, Entry{Kind: EntryWait, Sig: ds.sig})
				}
			}
			entries = append(entries, Entry{Kind: EntryCompute, Task: t, Release: p.System.Start[t]})
			for _, ds := range depSigs {
				if ds.d.From == t {
					entries = append(entries, Entry{Kind: EntrySignal, Sig: ds.sig})
				}
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
	for _, b := range p.Buffers {
		if b.Spc == SpaceSPM && !b.Replica {
			if cores := p.accessingCores(b.V); len(cores) > 1 {
				return fmt.Errorf("par: SPM buffer %s accessed by %d cores", b.V.Name, len(cores))
			}
		}
		if b.Replica && !p.readOnly(b.V) {
			return fmt.Errorf("par: replicated SPM buffer %s is written", b.V.Name)
		}
	}
	return nil
}
