package sim

import (
	"context"

	"argo/internal/fault"
	"argo/internal/par"
)

// ResetVMShared empties the shared compiled-code cache, so a test can
// observe a compilation a cache hit would otherwise skip.
func ResetVMShared() { vmShared.Reset() }

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
