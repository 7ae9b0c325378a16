// Command argosim compiles a use case and executes the resulting parallel
// program on the ARGO platform simulator over a set of input variants,
// comparing the measured behaviour against the static WCET bounds
// (measured must never exceed the bound — the tool exits non-zero if the
// soundness contract is violated).
//
// Deterministic fault injection (internal/fault) is switched on with the
// -fault-* flags: each run then suffers seed-driven bus/scratchpad access
// jitter, task compute inflation, and NoC stalls within the analysis
// budgets. In-budget injection must keep every run under the static bound;
// -exec-inflation above 1 deliberately breaks the bound and the tool
// reports the structured violations and exits non-zero.
//
// Examples:
//
//	argosim -usecase polka -platform xentium4 -runs 25
//	argosim -usecase weaa -platform leon3-2x2 -runs 10 \
//	  -fault-seed 7 -access-jitter 1 -exec-inflation 1 -noc-stall 0.5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"argo/internal/report"
	"argo/internal/sim"
	"argo/pkg/argo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("argosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		usecase  = fs.String("usecase", "", "built-in use case: egpws, weaa, polka")
		platform = fs.String("platform", "xentium4", "target platform name")
		runs     = fs.Int("runs", 10, "number of deterministic input variants")
		gantt    = fs.Bool("gantt", false, "draw an ASCII timeline of the first run")

		faultSeed = fs.Int64("fault-seed", 0, "fault-injection seed (re-seeded per run with the input seed)")
		jitter    = fs.Float64("access-jitter", 0, "share [0,1] of per-access interference budget injected as stall")
		inflation = fs.Float64("exec-inflation", 0, "task compute inflation (<=1: within WCET headroom, >1: break bounds)")
		nocStall  = fs.Float64("noc-stall", 0, "share [0,1] of per-hop NoC waiting allowance injected as stalls")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	faults := argo.FaultSpec{
		Seed:          *faultSeed,
		AccessJitter:  *jitter,
		ExecInflation: *inflation,
		NoCStall:      *nocStall,
	}
	if err := faults.Validate(); err != nil {
		fmt.Fprintf(stderr, "argosim: %v\n", err)
		return 2
	}
	uc := argo.UseCaseByName(*usecase)
	if uc == nil {
		fmt.Fprintln(stderr, "argosim: unknown or missing -usecase (egpws, weaa, polka)")
		return 2
	}
	plat := argo.Platform(*platform)
	if plat == nil {
		fmt.Fprintf(stderr, "argosim: unknown platform %q (%v)\n", *platform, argo.PlatformNames())
		return 2
	}
	opt := argo.DefaultOptions(uc.Entry, uc.Args, plat)
	art, err := argo.CompileSource(uc.Source, opt)
	if err != nil {
		fmt.Fprintf(stderr, "argosim: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, argo.Describe(art))
	injecting := faults.Enabled()
	cols := []string{"seed", "makespan", "exec-span", "bus-wait", "bound-used", "ok"}
	if injecting {
		cols = append(cols, "injected")
	}
	tab := report.New(fmt.Sprintf("Simulated runs (bound %d cycles)", art.Bound()), cols...)
	var worst int64
	sound := true
	for seed := 0; seed < *runs; seed++ {
		var rep *argo.SimReport
		var err error
		if injecting {
			// Re-seed per run so a sweep over input seeds also sweeps
			// fault patterns deterministically (same rule as argod).
			spec := faults
			spec.Seed += int64(seed)
			rep, err = argo.SimulateFaulty(art, uc.Inputs(int64(seed)), spec)
		} else {
			rep, err = argo.Simulate(art, uc.Inputs(int64(seed)))
		}
		if err != nil {
			fmt.Fprintf(stderr, "argosim: seed %d: %v\n", seed, err)
			return 1
		}
		if *gantt && seed == 0 {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, sim.RenderGantt(art.Parallel, rep, 100))
			fmt.Fprintln(stdout)
		}
		ok := "yes"
		if err := argo.CheckBounds(art, rep); err != nil {
			ok = "VIOLATION"
			sound = false
			for _, v := range argo.Violations(art, rep) {
				fmt.Fprintf(stderr, "argosim: seed %d: %v\n", seed, v)
			}
		}
		if rep.Makespan > worst {
			worst = rep.Makespan
		}
		row := []any{seed, rep.Makespan, rep.ExecSpan, rep.BusWaitCycles,
			fmt.Sprintf("%.1f%%", 100*float64(rep.Makespan)/float64(art.Bound())), ok}
		if injecting {
			row = append(row, rep.Faults.Total())
		}
		tab.Add(row...)
	}
	fmt.Fprint(stdout, tab)
	fmt.Fprintf(stdout, "\nworst observed: %d cycles; bound: %d; tightness %.3f\n",
		worst, art.Bound(), float64(art.Bound())/float64(worst))
	if !sound {
		fmt.Fprintln(stderr, "argosim: SOUNDNESS VIOLATION — a run exceeded its WCET bound")
		return 1
	}
	return 0
}
