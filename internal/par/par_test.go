package par

import (
	"fmt"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/htg"
	"argo/internal/ir"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/syswcet"
	"argo/internal/transform"
	"argo/internal/wcet"
)

const pipelineSrc = `
function [outa, outb] = f(img)
  h = size(img, 1)
  w = size(img, 2)
  tmp = zeros(h, w)
  outa = zeros(h, w)
  outb = zeros(h, w)
  for i = 1:h
    for j = 1:w
      tmp(i, j) = img(i, j) * 2
    end
  end
  for i = 1:h
    for j = 1:w
      outa(i, j) = tmp(i, j) + 1
    end
  end
  for i = 1:h
    for j = 1:w
      outb(i, j) = tmp(i, j) - 1
    end
  end
endfunction`

// buildAll runs the full pipeline up to the parallel program.
func buildAll(t *testing.T, src string, platform *adl.Platform, spm bool, args ...ir.ArgSpec) *Program {
	t.Helper()
	sp, err := scil.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if errs := scil.Check(sp, scil.CheckWCET); len(errs) > 0 {
		t.Fatalf("check: %v", errs[0])
	}
	prog, err := ir.Lower(sp, "f", args)
	if err != nil {
		t.Fatal(err)
	}
	opt := transform.Options{Fold: true}
	if spm {
		opt.SPM = &transform.SPMOptions{
			CapacityBytes:  platform.Cores[0].SPM.SizeBytes,
			SharedLatency:  platform.MaxSharedAccessIsolated(),
			SPMLatency:     platform.Cores[0].SPM.LatencyCycles,
			DMACostPerByte: platform.DMA.CyclesPerByte,
		}
	}
	transform.Apply(prog, opt)
	g := htg.Build(prog)
	models := make([]wcet.CostModel, platform.NumCores())
	for c := range models {
		models[c] = wcet.ModelFor(platform, c)
	}
	htg.Annotate(g, models)
	in := sched.FromHTG(g, platform)
	s, err := sched.Run(in, sched.ListContentionAware)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := syswcet.Analyze(in, s)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Build(prog, g, in, s, sys, platform)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestBuildValidates(t *testing.T) {
	pp := buildAll(t, pipelineSrc, adl.XentiumPlatform(4), false, ir.MatrixArg(8, 8))
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossCoreDependencesSynchronized(t *testing.T) {
	pp := buildAll(t, pipelineSrc, adl.XentiumPlatform(4), false, ir.MatrixArg(8, 8))
	crossCore := 0
	for _, d := range pp.Input.Deps {
		if pp.Schedule.Placements[d.From].Core != pp.Schedule.Placements[d.To].Core {
			crossCore++
		}
	}
	if crossCore == 0 {
		t.Skip("schedule put everything on one core")
	}
	if pp.Signals != crossCore {
		t.Fatalf("signals = %d, cross-core deps = %d", pp.Signals, crossCore)
	}
	waits, signals := 0, 0
	for _, entries := range pp.CoreEntries {
		for _, e := range entries {
			switch e.Kind {
			case EntryWait:
				waits++
			case EntrySignal:
				signals++
			}
		}
	}
	if waits != crossCore || signals != crossCore {
		t.Fatalf("waits=%d signals=%d want %d", waits, signals, crossCore)
	}
}

func TestBufferPlacementDisjointAddresses(t *testing.T) {
	pp := buildAll(t, pipelineSrc, adl.XentiumPlatform(2), true, ir.MatrixArg(8, 8))
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	type region struct{ lo, hi int }
	spaces := map[string][]region{}
	for _, b := range pp.Buffers {
		key := "shared"
		if b.Spc == SpaceSPM {
			key = "spm" + string(rune('0'+b.Core))
		}
		spaces[key] = append(spaces[key], region{b.Addr, b.Addr + b.V.SizeBytes()})
	}
	for key, regs := range spaces {
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].lo < regs[j].hi && regs[j].lo < regs[i].hi {
					t.Fatalf("%s: overlapping buffers %v %v", key, regs[i], regs[j])
				}
			}
		}
	}
}

func TestSPMDemotionWhenShared(t *testing.T) {
	// Promote everything aggressively, then check cross-core buffers got
	// demoted and the program still validates.
	platform := adl.XentiumPlatform(4)
	pp := buildAll(t, pipelineSrc, platform, true, ir.MatrixArg(8, 8))
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, b := range pp.Buffers {
		if b.Spc == SpaceSPM {
			if len(pp.accesses()[b.V].cores) != 1 {
				t.Fatalf("SPM buffer %s not single-core", b.V.Name)
			}
		}
	}
}

func TestDMAPhasesForSPMParamsAndResults(t *testing.T) {
	// Single core: everything can live in SPM; params DMA in, results
	// DMA out.
	platform := adl.XentiumPlatform(1)
	pp := buildAll(t, pipelineSrc, platform, true, ir.MatrixArg(8, 8))
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	var hasIn, hasOut bool
	for _, op := range pp.DMAIns {
		if op.V.Param {
			hasIn = true
		}
	}
	for _, op := range pp.DMAOuts {
		if op.V.Result {
			hasOut = true
		}
	}
	if len(pp.DMAIns) > 0 && !hasIn {
		t.Fatal("no param DMA-in")
	}
	if len(pp.DMAOuts) > 0 && !hasOut {
		t.Fatal("no result DMA-out")
	}
	if len(pp.DMAIns) > 0 && pp.PrologueCycles <= 0 {
		t.Fatal("prologue cycles missing")
	}
	if pp.BoundMakespan() < pp.System.Makespan {
		t.Fatal("bound must include DMA phases")
	}
}

func TestEmitC(t *testing.T) {
	pp := buildAll(t, pipelineSrc, adl.XentiumPlatform(4), false, ir.MatrixArg(6, 6))
	c := pp.EmitC()
	for _, want := range []string{
		"core_0_main", "core_3_main", "task_0", "argo_barrier",
		"static double", "for (", "System WCET bound",
	} {
		if !strings.Contains(c, want) {
			t.Fatalf("emitted C missing %q:\n%s", want, c[:min(len(c), 2000)])
		}
	}
	if strings.Contains(c, "%") {
		// IR temp names like %i must be sanitized away.
		for _, line := range strings.Split(c, "\n") {
			if strings.Contains(line, "%") && !strings.Contains(line, "/*") {
				t.Fatalf("unsanitized identifier in: %s", line)
			}
		}
	}
}

func TestReleaseTimesMatchSystemAnalysis(t *testing.T) {
	pp := buildAll(t, pipelineSrc, adl.XentiumPlatform(4), false, ir.MatrixArg(8, 8))
	for _, entries := range pp.CoreEntries {
		for _, e := range entries {
			if e.Kind == EntryCompute && e.Release != pp.System.Start[e.Task] {
				t.Fatalf("task %d release %d != system start %d", e.Task, e.Release, pp.System.Start[e.Task])
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEmitCWellFormed checks structural sanity of the generated C:
// balanced braces/parens and one function per task and core.
func TestEmitCWellFormed(t *testing.T) {
	pp := buildAll(t, pipelineSrc, adl.XentiumPlatform(3), true, ir.MatrixArg(8, 8))
	c := pp.EmitC()
	// Strip comments before counting nesting (the half-open interval
	// notation in comments contains lone parens).
	var code strings.Builder
	for i := 0; i < len(c); i++ {
		if i+1 < len(c) && c[i] == '/' && c[i+1] == '*' {
			end := strings.Index(c[i+2:], "*/")
			if end < 0 {
				t.Fatal("unterminated block comment")
			}
			i += 2 + end + 1
			continue
		}
		code.WriteByte(c[i])
	}
	stripped := code.String()
	braces, parens := 0, 0
	for _, r := range stripped {
		switch r {
		case '{':
			braces++
		case '}':
			braces--
		case '(':
			parens++
		case ')':
			parens--
		}
		if braces < 0 || parens < 0 {
			t.Fatal("unbalanced nesting")
		}
	}
	if braces != 0 || parens != 0 {
		t.Fatalf("unbalanced: braces %d, parens %d", braces, parens)
	}
	for tsk := range pp.Input.Tasks {
		if !strings.Contains(c, fmt.Sprintf("void task_%d(void)", tsk)) {
			t.Fatalf("missing task_%d", tsk)
		}
	}
	for core := 0; core < 3; core++ {
		if !strings.Contains(c, fmt.Sprintf("void core_%d_main(void)", core)) {
			t.Fatalf("missing core_%d_main", core)
		}
	}
	// Every referenced runtime symbol must exist in the header.
	for _, sym := range []string{"argo_wait", "argo_signal", "argo_barrier", "argo_release_at"} {
		if strings.Contains(c, sym) && !strings.Contains(RuntimeHeader, sym) {
			t.Fatalf("runtime header missing %s", sym)
		}
	}
}
