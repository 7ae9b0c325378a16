// Command argowcet runs ARGO's WCET analyses on a use case: per-task
// code-level bounds (with the structural and IPET analyses cross-checked
// against each other), the interference breakdown of the system-level
// analysis, and the end-to-end bound.
//
// The -engine flag selects which code-level engine supplies the compiled
// bounds: "ipet" (the default), "mc" (the exact slicing+model-checking
// engine), or "both" (IPET bounds, with the exact engine re-run on every
// region and any exact > IPET violation failing the compilation). With
// -engine=mc or -engine=both the table gains an "mc" column; under
// "both" it also shows the per-task tightness gap (structural - mc).
//
// Exit codes: 0 on success, 1 on pipeline failure or cross-check
// disagreement, 2 on flag misuse.
//
// Example:
//
//	argowcet -usecase egpws -platform xentium4
//	argowcet -usecase polka -platform xentium4 -engine both
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"argo/internal/report"
	"argo/internal/wcet"
	"argo/internal/wcet/mc"
	"argo/pkg/argo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool, separated from main so tests can exercise flag
// handling, table shape, and exit codes in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("argowcet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		usecase  = fs.String("usecase", "", "built-in use case: egpws, weaa, polka")
		platform = fs.String("platform", "xentium4", "target platform name")
		ipet     = fs.Bool("ipet", true, "cross-check structural bounds against IPET/ILP")
		engine   = fs.String("engine", "ipet", "code-level WCET engine: ipet, mc, or both (cross-checked)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	uc := argo.UseCaseByName(*usecase)
	if uc == nil {
		fmt.Fprintln(stderr, "argowcet: unknown or missing -usecase (egpws, weaa, polka)")
		return 2
	}
	plat := argo.Platform(*platform)
	if plat == nil {
		fmt.Fprintf(stderr, "argowcet: unknown platform %q (%v)\n", *platform, argo.PlatformNames())
		return 2
	}
	if err := argo.ParseWCETEngine(*engine); err != nil {
		fmt.Fprintf(stderr, "argowcet: %v\n", err)
		return 2
	}
	opt := argo.DefaultOptions(uc.Entry, uc.Args, plat)
	opt.WCETEngine = *engine
	art, err := argo.CompileSource(uc.Source, opt)
	if err != nil {
		fmt.Fprintf(stderr, "argowcet: %v\n", err)
		return 1
	}
	withMC := *engine == "mc" || *engine == "both"
	cols := []string{"task", "label", "core", "structural", "ipet", "agree"}
	if withMC {
		cols = append(cols, "mc")
	}
	if *engine == "both" {
		cols = append(cols, "gap")
	}
	cols = append(cols, "shared-acc", "interference", "bound")
	tab := report.New(fmt.Sprintf("Per-task WCET analysis: %s on %s (engine %s)", uc.Name, plat.Name, *engine),
		cols...)
	allAgree := true
	for _, n := range art.Graph.Nodes {
		pl := art.Schedule.Placements[n.ID]
		model := wcet.ModelFor(plat, pl.Core)
		structural := wcet.Structural(n.Stmts, model)
		ipetStr := "-"
		agree := "-"
		if *ipet {
			v, err := wcet.IPET(n.Stmts, model)
			if err != nil {
				ipetStr = "err"
				allAgree = false
			} else {
				ipetStr = fmt.Sprintf("%d", v)
				if v == structural {
					agree = "yes"
				} else {
					agree = "NO"
					allAgree = false
				}
			}
		}
		row := []any{n.ID, n.Label, pl.Core, structural, ipetStr, agree}
		if withMC {
			exact := wcet.AnalyzeMemo(mc.Default, n.Stmts, model)
			row = append(row, exact.Cycles)
			if *engine == "both" {
				row = append(row, structural-exact.Cycles)
			}
		}
		row = append(row, n.SharedAccesses, art.System.InterferencePerTask[n.ID], art.System.TaskBound[n.ID])
		tab.Add(row...)
	}
	fmt.Fprint(stdout, tab)
	fmt.Fprintf(stdout, "\nsequential bound: %d cycles\n", art.SequentialWCET)
	fmt.Fprintf(stdout, "schedule makespan: %d cycles\n", art.Schedule.Makespan)
	fmt.Fprintf(stdout, "system bound:      %d cycles (interference %d, fixpoint rounds %d)\n",
		art.System.Makespan, art.System.TotalInterference(), art.System.Iterations)
	fmt.Fprintf(stdout, "total bound:       %d cycles (incl. DMA %d+%d)\n",
		art.Bound(), art.Parallel.PrologueCycles, art.Parallel.EpilogueCycles)
	if *engine == "both" {
		fmt.Fprintln(stdout, "mc cross-check:    all tasks within IPET bounds")
	}
	if *ipet {
		if allAgree {
			fmt.Fprintln(stdout, "IPET cross-check:  all tasks agree")
		} else {
			fmt.Fprintln(stdout, "IPET cross-check:  DISAGREEMENT — analysis bug")
			return 1
		}
	}
	return 0
}
