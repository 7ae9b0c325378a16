// Soundness differentials for what a warm program reuses across inputs
// (see docs/TESTING.md): the segment traces of the tasks the staticity
// analysis (ir.TraceEnv) calls invariant, and the discrete-event loop's
// prefix up to the first start of a trace-variant task.
package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/ir"
	"argo/internal/par"
	"argo/internal/scil"
	"argo/internal/sim"
	"argo/internal/usecases"
)

// diffPlatforms cover the three policies of the shared port (adl.Port):
// round-robin bus, TDM bus and NoC memory port.
var diffPlatforms = []string{"xentium4", "xentium4-tdm", "leon3-2x2"}

// simConfig is one program × platform configuration.
type simConfig struct {
	name   string
	build  func() (*core.Artifacts, error)
	inputs func(seed int64) [][]float64
	// staticIf requires some invariant task to contain an if, so the
	// differential covers the static-branch rule.
	staticIf bool
}

// compile compiles c anew: the parallel program is fresh, so its trace
// cache starts empty.
func (c simConfig) compile(t *testing.T) *par.Program {
	t.Helper()
	art, err := c.build()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return art.Parallel
}

func useCaseConfigs(platforms []string) []simConfig {
	var out []simConfig
	for _, u := range usecases.All() {
		for _, pname := range platforms {
			u, pname := u, pname
			out = append(out, simConfig{
				name: pname + "/" + u.Name,
				build: func() (*core.Artifacts, error) {
					p, err := u.Program()
					if err != nil {
						return nil, err
					}
					return core.Compile(p, core.DefaultOptions(u.Entry, u.Args, adl.Builtin(pname)))
				},
				inputs: u.Inputs,
			})
		}
	}
	return out
}

// kernels are hand-written programs whose ifs test loop indices only:
// generated programs rarely have a static branch.
var kernels = map[string]string{
	"boundary-stencil": `
function out = f(img)
  out = zeros(8, 8)
  for i = 1:8
    for j = 1:8
      acc = 0
      for di = -1:1
        for dj = -1:1
          ii = i + di
          jj = j + dj
          if ii >= 1 & ii <= 8 & jj >= 1 & jj <= 8 then
            acc = acc + img(ii, jj)
          end
        end
      end
      out(i, j) = acc / 9
    end
  end
endfunction`,
	"index-parity": `
function out = f(img)
  out = zeros(8, 8)
  for i = 1:8
    for j = 1:8
      if floor(j / 2) * 2 == j then
        out(i, j) = img(i, j) * 2
      else
        out(i, j) = -img(i, j)
      end
    end
  end
endfunction`,
	// The arms of the static branch touch shared memory a different
	// number of times, and the data-dependent branch after it keeps
	// a trace-variant task in the program.
	"uneven-arms": `
function [out, acc] = f(img)
  out = zeros(8, 8)
  acc = 0
  for i = 1:8
    if i <= 3 then
      for j = 1:8
        out(i, j) = img(i, j) + img(j, i)
      end
    else
      out(i, 1) = img(i, 1)
    end
  end
  for i = 1:8
    if img(i, i) > 0 then
      acc = acc + img(i, 1) * img(1, i)
    end
  end
endfunction`,
}

func kernelConfigs(platforms []string) []simConfig {
	var out []simConfig
	for _, name := range []string{"boundary-stencil", "index-parity", "uneven-arms"} {
		for _, pname := range platforms {
			src, pname := kernels[name], pname
			out = append(out, simConfig{
				name: pname + "/" + name,
				build: func() (*core.Artifacts, error) {
					opt := core.DefaultOptions("f", []ir.ArgSpec{{Rows: 8, Cols: 8}}, adl.Builtin(pname))
					return core.CompileSource(src, opt)
				},
				inputs:   func(seed int64) [][]float64 { return [][]float64{randMatrix(64, seed)} },
				staticIf: true,
			})
		}
	}
	return out
}

// generatedConfigs covers n scil.Generate programs on each platform.
func generatedConfigs(n int, platforms []string) []simConfig {
	cfg := scil.DefaultGenConfig()
	var out []simConfig
	for prog := int64(1); prog <= int64(n); prog++ {
		for _, pname := range platforms {
			prog, pname := prog, pname
			out = append(out, simConfig{
				name: fmt.Sprintf("%s/gen%d", pname, prog),
				build: func() (*core.Artifacts, error) {
					src := scil.Generate(rand.New(rand.NewSource(prog)), cfg)
					opt := core.DefaultOptions("fuzz", []ir.ArgSpec{{Rows: cfg.Rows, Cols: cfg.Cols}}, adl.Builtin(pname))
					return core.Compile(src, opt)
				},
				inputs: func(seed int64) [][]float64 { return [][]float64{randMatrix(cfg.Rows*cfg.Cols, seed)} },
			})
		}
	}
	return out
}

func randMatrix(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*8 - 3
	}
	return out
}

func hasIf(stmts []ir.Stmt) bool {
	return !ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		_, ok := s.(*ir.If)
		return !ok
	})
}

// TestInvariantTracesInputIndependent meters every task afresh under
// five inputs: each task the analysis calls trace-invariant must emit
// the same segment trace under all of them.
func TestInvariantTracesInputIndependent(t *testing.T) {
	configs := useCaseConfigs(adl.BuiltinNames())
	configs = append(configs, kernelConfigs(diffPlatforms)...)
	configs = append(configs, generatedConfigs(200, diffPlatforms)...)
	var tasks, invariant, withIf int
	for _, c := range configs {
		p := c.compile(t)
		var ref [][]sim.Segment
		var inv []bool
		for seed := int64(1); seed <= 5; seed++ {
			traces, isInv, err := sim.MeterTasks(p, c.inputs(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if ref == nil {
				ref, inv = traces, isInv
				continue
			}
			for task, ok := range inv {
				if ok && !slices.Equal(traces[task], ref[task]) {
					t.Errorf("%s: invariant task %d metered differently under seeds 1 and %d", c.name, task, seed)
				}
			}
		}
		staticIf := false
		for _, n := range p.Graph.Nodes {
			tasks++
			if inv[n.ID] {
				invariant++
				if hasIf(n.Stmts) {
					staticIf = true
					withIf++
				}
			}
		}
		if c.staticIf && !staticIf {
			t.Errorf("%s: no invariant task contains an if; the kernel does not exercise the static-branch rule", c.name)
		}
	}
	t.Logf("%d configurations, %d tasks, %d invariant, %d of them with a static if", len(configs), tasks, invariant, withIf)
}

// warmUp runs p once on the VM, which records its invariant traces and
// its loop prefix.
func warmUp(t *testing.T, c simConfig, p *par.Program) {
	t.Helper()
	if _, err := sim.RunEngine(p, c.inputs(1), onVM); err != nil {
		t.Fatalf("%s warm-up: %v", c.name, err)
	}
	if !sim.PrefixRecorded(p) {
		t.Fatalf("%s: the warm-up run recorded no loop prefix", c.name)
	}
}

// TestWarmRunsMatchColdOracle: after a warm-up, a program's VM runs
// replay invariant traces and resume from the loop prefix. Their reports
// must equal the tree walker's on a fresh compile of the same
// configuration; the trace cache is shared between engines, so the
// oracle must not see the warm program's.
func TestWarmRunsMatchColdOracle(t *testing.T) {
	configs := useCaseConfigs(adl.BuiltinNames())
	configs = append(configs, kernelConfigs(diffPlatforms)...)
	configs = append(configs, generatedConfigs(100, diffPlatforms)...)
	for _, c := range configs {
		warm := c.compile(t)
		warmUp(t, c, warm)
		cold := c.compile(t)
		for seed := int64(3); seed <= 8; seed++ {
			got, err := sim.RunEngine(warm, c.inputs(seed), onVM)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			want, err := sim.RunEngine(cold, c.inputs(seed), onTree)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if a, b := fingerprint(got), fingerprint(want); a != b {
				t.Errorf("%s seed %d: warm VM run differs from cold oracle\n vm   %s\n tree %s", c.name, seed, a, b)
			}
		}
	}
}

// TestInjectedRunIgnoresPrefix: fault injection perturbs the tasks the
// loop prefix covers, so an injected run on a warm program must run the
// loop from the start and equal the tree walker's injected run.
func TestInjectedRunIgnoresPrefix(t *testing.T) {
	spec := fault.Spec{Seed: 5, AccessJitter: 0.6, ExecInflation: 0.6}
	configs := useCaseConfigs(diffPlatforms)
	configs = append(configs, kernelConfigs(diffPlatforms)...)
	for _, c := range configs {
		warm := c.compile(t)
		warmUp(t, c, warm)
		got, err := sim.RunFaultyEngine(warm, c.inputs(2), spec, onVM)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunFaultyEngine(c.compile(t), c.inputs(2), spec, onTree)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fingerprint(got), fingerprint(want); a != b {
			t.Errorf("%s: injected warm VM run differs from the oracle\n vm   %s\n tree %s", c.name, a, b)
		}
		if got.Faults != want.Faults {
			t.Errorf("%s: injected stats differ: vm=%+v tree=%+v", c.name, got.Faults, want.Faults)
		}
	}
}
