package main

// -write-expected: the expected outputs, from the oracle paths only.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"argo/internal/service"
	"argo/pkg/argo"
)

// writeExpected compiles every base configuration cache-free and
// simulates the repeated seeds on the tree-walking interpreter. It also
// checks that perturbing any decimal literal, as compile-cold does,
// keeps the bound and the task count, so compile-cold may assert both.
func writeExpected(path string, log io.Writer) error {
	if err := argo.SetInterp("tree"); err != nil {
		return err
	}
	e := expected{
		Note:      "written by go run . -write-expected expected.json in perfbench/ from cache-free compiles and the tree-walking interpreter",
		Configs:   map[string]expConfig{},
		Makespans: map[string][]int64{},
	}
	for _, c := range baseConfigs {
		uc := useCase(c.model)
		pol, err := service.ParsePolicy(c.policy)
		if err != nil {
			return err
		}
		opt := argo.DefaultOptions(uc.Entry, uc.Args, argo.Platform(c.platform))
		opt.Policy = pol
		opt.Passes.NoCache = true
		art, err := argo.CompileSource(uc.Source, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		want := expConfig{argo.SessionResultFingerprint(art), art.Bound(), len(art.Graph.Nodes)}
		e.Configs[c.key()] = want
		for _, l := range decimalLiterals(uc.Source) {
			for _, n := range []int{1, 1 << 20} {
				v, err := argo.CompileSource(perturb(uc.Source, l, n), opt)
				if err != nil {
					return fmt.Errorf("%s, literal at %d: %w", c.key(), l.start, err)
				}
				if v.Bound() != want.Bound || len(v.Graph.Nodes) != want.Tasks {
					return fmt.Errorf("%s: perturbing the literal at %d moves the bound to %d with %d tasks (base %d with %d)",
						c.key(), l.start, v.Bound(), len(v.Graph.Nodes), want.Bound, want.Tasks)
				}
			}
		}
		if c.policy != "aware" {
			continue
		}
		for seed := int64(1); seed <= simRepeated; seed++ {
			rep, err := argo.Simulate(art, uc.Inputs(seed))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", c.key(), seed, err)
			}
			if err := argo.CheckBounds(art, rep); err != nil {
				return fmt.Errorf("%s seed %d: %w", c.key(), seed, err)
			}
			e.Makespans[c.key()] = append(e.Makespans[c.key()], rep.Makespan)
		}
		fmt.Fprintf(log, "%-28s bound %d, %d tasks\n", c.model+"/"+c.platform, want.Bound, want.Tasks)
	}
	b, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
