package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/htg"
	"argo/internal/ir"
	"argo/internal/par"
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
      outb(i, j) = tmp(i, j) - i + j
    end
  end
endfunction`

const branchySrc = `
function out = f(img)
  h = size(img, 1)
  w = size(img, 2)
  out = zeros(h, w)
  for i = 1:h
    for j = 1:w
      v = img(i, j)
      if v > 0 then
        out(i, j) = sqrt(v)
      else
        out(i, j) = -v * 3
      end
    end
  end
endfunction`

func buildPipeline(t *testing.T, src string, platform *adl.Platform, pol sched.Policy, spm bool, args ...ir.ArgSpec) *par.Program {
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
	opt := transform.Options{Fold: true, Fission: true}
	if spm {
		opt.SPM = &transform.SPMOptions{
			CapacityBytes:  platform.Cores[0].SPM.SizeBytes,
			SharedLatency:  platform.MaxSharedAccessIsolated(),
			SPMLatency:     platform.Cores[0].SPM.LatencyCycles,
			DMACostPerByte: platform.DMA.CyclesPerByte,
		}
	}
	transform.Apply(prog, opt)
	models := make([]wcet.CostModel, platform.NumCores())
	for c := range models {
		models[c] = wcet.ModelFor(platform, c)
	}
	// Phase-ordering feedback: buffer placement may demote SPM variables
	// (cross-core sharing), invalidating WCET annotations — re-analyze
	// until the placement is stable.
	for round := 0; ; round++ {
		g := htg.Build(prog)
		htg.Annotate(g, models)
		in := sched.FromHTG(g, platform)
		s, err := sched.Run(in, pol)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := syswcet.Analyze(in, s)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := par.Build(prog, g, in, s, sys, platform)
		if err != nil {
			t.Fatal(err)
		}
		if len(pp.Demoted) > 0 && round < 8 {
			continue // storage changed; redo the analyses
		}
		if err := pp.Validate(); err != nil {
			t.Fatal(err)
		}
		return pp
	}
}

func randImg(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*100 - 40
	}
	return out
}

func TestSimFunctionalCorrectness(t *testing.T) {
	platform := adl.XentiumPlatform(4)
	pp := buildPipeline(t, pipelineSrc, platform, sched.ListContentionAware, false, ir.MatrixArg(8, 8))
	in := randImg(64, 3)
	want, err := ir.NewExec(pp.IR, nil).Run([][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(pp, [][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("results: %d vs %d", len(rep.Results), len(want))
	}
	for i := range want {
		for k := range want[i] {
			if math.Abs(rep.Results[i][k]-want[i][k]) > 1e-12 {
				t.Fatalf("result %d elem %d: %g vs %g", i, k, rep.Results[i][k], want[i][k])
			}
		}
	}
}

func TestMeasuredWithinBounds(t *testing.T) {
	platforms := []*adl.Platform{
		adl.XentiumPlatform(1),
		adl.XentiumPlatform(2),
		adl.XentiumPlatform(4),
		adl.XentiumTDMPlatform(4),
		adl.Leon3TilePlatform(2, 2),
	}
	for _, platform := range platforms {
		for _, src := range []string{pipelineSrc, branchySrc} {
			pp := buildPipeline(t, src, platform, sched.ListContentionAware, false, ir.MatrixArg(8, 8))
			for seed := int64(0); seed < 5; seed++ {
				rep, err := Run(pp, [][]float64{randImg(64, seed)})
				if err != nil {
					t.Fatalf("%s: %v", platform.Name, err)
				}
				if err := CheckAgainstBounds(pp, rep); err != nil {
					t.Fatalf("%s seed %d: %v", platform.Name, seed, err)
				}
				if rep.ExecSpan <= 0 {
					t.Fatalf("%s: no execution time", platform.Name)
				}
			}
		}
	}
}

func TestMeasuredWithinBoundsWithSPM(t *testing.T) {
	platform := adl.XentiumPlatform(2)
	pp := buildPipeline(t, pipelineSrc, platform, sched.ListContentionAware, true, ir.MatrixArg(8, 8))
	rep, err := Run(pp, [][]float64{randImg(64, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAgainstBounds(pp, rep); err != nil {
		t.Fatal(err)
	}
	// Functional result must be unaffected by SPM placement.
	ppNo := buildPipeline(t, pipelineSrc, platform, sched.ListContentionAware, false, ir.MatrixArg(8, 8))
	repNo, err := Run(ppNo, [][]float64{randImg(64, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		for k := range rep.Results[i] {
			if rep.Results[i][k] != repNo.Results[i][k] {
				t.Fatal("SPM placement changed results")
			}
		}
	}
}

func TestParallelBeatsSequentialSimulated(t *testing.T) {
	in := randImg(16*16, 5)
	pp1 := buildPipeline(t, pipelineSrc, adl.XentiumPlatform(1), sched.ListContentionAware, false, ir.MatrixArg(16, 16))
	pp4 := buildPipeline(t, pipelineSrc, adl.XentiumPlatform(4), sched.ListContentionAware, false, ir.MatrixArg(16, 16))
	r1, err := Run(pp1, [][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(pp4, [][]float64{in})
	if err != nil {
		t.Fatal(err)
	}
	if r4.ExecSpan >= r1.ExecSpan {
		t.Fatalf("4 cores (%d) should beat 1 core (%d)", r4.ExecSpan, r1.ExecSpan)
	}
	// And the static bounds should agree on the direction.
	if pp4.System.Makespan >= pp1.System.Makespan {
		t.Fatalf("bound: 4 cores %d vs 1 core %d", pp4.System.Makespan, pp1.System.Makespan)
	}
}

func TestBusContentionObservable(t *testing.T) {
	platform := adl.XentiumPlatform(4)
	pp := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, ir.MatrixArg(12, 12))
	rep, err := Run(pp, [][]float64{randImg(144, 2)})
	if err != nil {
		t.Fatal(err)
	}
	// With several cores hammering shared memory, some arbitration
	// waiting must be visible.
	if rep.BusWaitCycles == 0 {
		t.Skip("schedule serialized everything; no contention to observe")
	}
	if err := CheckAgainstBounds(pp, rep); err != nil {
		t.Fatal(err)
	}
}

func TestTimeTriggeredReleaseRespected(t *testing.T) {
	platform := adl.XentiumPlatform(4)
	pp := buildPipeline(t, pipelineSrc, platform, sched.ListContentionAware, false, ir.MatrixArg(8, 8))
	rep, err := Run(pp, [][]float64{randImg(64, 9)})
	if err != nil {
		t.Fatal(err)
	}
	for tsk := range pp.Input.Tasks {
		if rep.TaskStart[tsk] < pp.System.Start[tsk] {
			t.Fatalf("task %d released early: %d < %d", tsk, rep.TaskStart[tsk], pp.System.Start[tsk])
		}
	}
}

func TestTightnessRatioReasonable(t *testing.T) {
	platform := adl.XentiumPlatform(2)
	pp := buildPipeline(t, pipelineSrc, platform, sched.ListContentionAware, false, ir.MatrixArg(8, 8))
	var worst int64
	for seed := int64(0); seed < 10; seed++ {
		rep, err := Run(pp, [][]float64{randImg(64, seed)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ExecSpan > worst {
			worst = rep.ExecSpan
		}
	}
	ratio := float64(pp.System.Makespan) / float64(worst)
	if ratio < 1 {
		t.Fatalf("bound below observed worst case: ratio %f", ratio)
	}
	if ratio > 5 {
		t.Fatalf("bound suspiciously loose: ratio %f", ratio)
	}
}

func TestRenderGantt(t *testing.T) {
	platform := adl.XentiumPlatform(2)
	pp := buildPipeline(t, pipelineSrc, platform, sched.ListContentionAware, false, ir.MatrixArg(8, 8))
	rep, err := Run(pp, [][]float64{randImg(64, 4)})
	if err != nil {
		t.Fatal(err)
	}
	g := RenderGantt(pp, rep, 60)
	if !strings.Contains(g, "core 0 |") || !strings.Contains(g, "core 1 |") {
		t.Fatalf("gantt:\n%s", g)
	}
	if !strings.Contains(g, "system bound") || !strings.Contains(g, "#") {
		t.Fatalf("gantt:\n%s", g)
	}
}
