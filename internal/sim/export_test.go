package sim

import (
	"context"

	"argo/internal/fault"
	"argo/internal/ir"
	"argo/internal/par"
	"argo/internal/wcet"
)

// RunEngine is RunContext on the engine the caller picks (the tree
// walker when tree is set), so tests running in parallel can compare
// engines without the process-wide switch.
func RunEngine(p *par.Program, args [][]float64, tree bool) (*Report, error) {
	return run(context.Background(), p, args, nil, tree)
}

// RunFaultyEngine is RunFaulty on the engine the caller picks.
func RunFaultyEngine(p *par.Program, args [][]float64, spec fault.Spec, tree bool) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return run(context.Background(), p, args, fault.New(spec), tree)
}

// Segment is one step of a task's segment trace.
type Segment = segment

// MeterTasks executes p on args with the tree walker, metering every
// task afresh (no trace cache, no memo), and returns each task's
// segment trace next to the analysis's verdict on its invariance.
func MeterTasks(p *par.Program, args [][]float64) (traces [][]Segment, invariant []bool, err error) {
	invariant = cacheFor(p).invariant
	ex := ir.NewExec(p.IR, nil)
	if err := ex.Init(args); err != nil {
		return nil, nil, err
	}
	traces = make([][]Segment, len(p.Input.Tasks))
	for _, n := range p.Graph.Nodes {
		tm := &traceMeter{model: wcet.ModelFor(p.Platform, p.Schedule.Placements[n.ID].Core)}
		ex.SetMeter(tm)
		if err := ex.ExecBlock(n.Stmts); err != nil {
			return nil, nil, err
		}
		traces[n.ID] = tm.finish()
	}
	return traces, invariant, nil
}

// PrefixRecorded reports whether p's discrete-event loop prefix is
// published.
func PrefixRecorded(p *par.Program) bool { return cacheFor(p).prefix.Load() != nil }

// VariantHash is the variant-trace memo's hash of an input set.
func VariantHash(args [][]float64) uint64 { return argsHash(args) }

// StoreVariantUnder stores a variant-trace memo entry for args under the
// caller's hash h instead of args' own, as a completed run would: a
// forced hash collision when h belongs to other inputs. The entry is
// admitted only if h was sighted before.
func StoreVariantUnder(p *par.Program, h uint64, args [][]float64, traces [][]Segment, results [][]float64) {
	cacheFor(p).storeVariant(h, args, traces, results)
}
