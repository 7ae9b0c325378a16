package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/ir"
	"argo/internal/pass"
	"argo/internal/usecases"
	"argo/internal/wcet"
)

// TestPassCacheKeepsOptimizeIdentical pins the tentpole caching
// guarantee: an Optimize ladder with the pass cache enabled produces
// bit-identical history and winner to a cache-disabled run, while the
// cache actually serves hits (candidates share transformation prefixes,
// and a 2-round feedback ladder re-runs loop passes).
func TestPassCacheKeepsOptimizeIdentical(t *testing.T) {
	uc := usecases.ByName("egpws")
	src, err := uc.Program()
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultOptions(uc.Entry, uc.Args, adl.XentiumPlatform(4))
	base.FeedbackRounds = 2

	pass.Global.Reset()
	hits0, _ := pass.CacheCounters()
	cached, err := Optimize(src, base, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits1, _ := pass.CacheCounters()
	if hits1 <= hits0 {
		t.Fatalf("argo_pass_cache_hits did not grow during the candidate ladder (%d -> %d)", hits0, hits1)
	}

	plainOpt := base
	plainOpt.Passes.NoCache = true
	plain, err := Optimize(src, plainOpt, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := optimizeHistoryFingerprint(plain)
	got := optimizeHistoryFingerprint(cached)
	if got != want {
		t.Fatalf("cached optimize diverged from uncached run:\ncached:\n%s\nuncached:\n%s", got, want)
	}
}

// TestCompileCancelledMidPipeline pins the cancellation contract: a
// cancel that lands while a pass is executing aborts within one pass
// boundary, returns context.Canceled (unwrapped), and yields no partial
// Artifacts.
func TestCompileCancelledMidPipeline(t *testing.T) {
	p := parse(t, pipelineSrc)
	opt := DefaultOptions("app", []ir.ArgSpec{ir.MatrixArg(16, 16)}, adl.XentiumPlatform(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var observed []string
	opt.Passes.OnTiming = func(tm pass.Timing) {
		observed = append(observed, tm.Pass)
		if tm.Pass == "build-htg" {
			cancel() // arrives while the pipeline is mid-flight
		}
	}
	art, err := CompileContext(ctx, p, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if art != nil {
		t.Fatal("cancelled compile returned partial Artifacts")
	}
	if len(observed) == 0 || observed[len(observed)-1] != "build-htg" {
		t.Fatalf("passes observed after cancellation: %v (nothing may run past build-htg)", observed)
	}
}

// TestDisablePassMatchesOptionOff pins that -disable-pass is equivalent
// to not enabling the transformation in the first place.
func TestDisablePassMatchesOptionOff(t *testing.T) {
	p := parse(t, pipelineSrc)
	platform := adl.XentiumPlatform(2)

	viaDisable := DefaultOptions("app", []ir.ArgSpec{ir.MatrixArg(12, 12)}, platform)
	viaDisable.Passes.Disable = []string{"fission"}
	a, err := Compile(p, viaDisable)
	if err != nil {
		t.Fatal(err)
	}

	viaOption := DefaultOptions("app", []ir.ArgSpec{ir.MatrixArg(12, 12)}, platform)
	viaOption.Transforms.Fission = false
	b, err := Compile(p, viaOption)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bound() != b.Bound() || a.Transform.FissionSplits != 0 {
		t.Fatalf("disable-pass bound=%d splits=%d, option-off bound=%d",
			a.Bound(), a.Transform.FissionSplits, b.Bound())
	}
}

func TestDisableUnknownPassRejected(t *testing.T) {
	p := parse(t, pipelineSrc)
	opt := DefaultOptions("app", []ir.ArgSpec{ir.MatrixArg(8, 8)}, adl.XentiumPlatform(2))
	opt.Passes.Disable = []string{"schedule"}
	if _, err := Compile(p, opt); err == nil || !strings.Contains(err.Error(), "unknown disableable pass") {
		t.Fatalf("err = %v, want unknown-disableable-pass error", err)
	}
}

func TestPassTraceRecorded(t *testing.T) {
	p := parse(t, pipelineSrc)
	opt := DefaultOptions("app", []ir.ArgSpec{ir.MatrixArg(10, 10)}, adl.XentiumPlatform(4))
	art, err := Compile(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := art.PassTrace
	if tr == nil || len(tr.Passes) < 6 {
		t.Fatalf("pass trace missing or too short: %+v", tr)
	}
	if tr.Passes[0].Pass != "check" || tr.Passes[1].Pass != "lower" {
		t.Fatalf("trace does not start with the front-end: %q, %q", tr.Passes[0].Pass, tr.Passes[1].Pass)
	}
	runs := map[string]int{}
	for _, tm := range tr.Passes {
		runs[tm.Pass]++
	}
	if runs["schedule"] != art.FeedbackRounds {
		t.Fatalf("schedule ran %d times, want one per feedback round (%d)", runs["schedule"], art.FeedbackRounds)
	}
	for _, name := range []string{"build-htg", "annotate", "par-build", "validate", "seq-wcet"} {
		if runs[name] == 0 {
			t.Fatalf("pass %q missing from trace (trace: %v)", name, runs)
		}
	}
}

func TestDumpAfterWritesArtifact(t *testing.T) {
	p := parse(t, pipelineSrc)
	opt := DefaultOptions("app", []ir.ArgSpec{ir.MatrixArg(10, 10)}, adl.XentiumPlatform(2))
	var buf bytes.Buffer
	opt.Passes.DumpAfter = "build-htg"
	opt.Passes.DumpWriter = &buf
	if _, err := Compile(p, opt); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, `after pass "build-htg"`) || len(out) < 40 {
		t.Fatalf("dump-after output missing or empty:\n%s", out)
	}
}

func TestDescribePipeline(t *testing.T) {
	opt := DefaultOptions("app", []ir.ArgSpec{ir.MatrixArg(10, 10)}, adl.XentiumPlatform(4))
	ds, err := DescribePipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	byName := map[string]pass.Desc{}
	for _, d := range ds {
		names = append(names, d.Name)
		byName[d.Name] = d
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"check lower", "fold", "label-loops build-htg annotate schedule par-build", "validate seq-wcet"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("pipeline order missing %q: %s", want, joined)
		}
	}
	if !byName["fold"].Cacheable || !byName["schedule"].Cacheable {
		t.Fatal("fold and schedule must be cacheable")
	}
	for _, name := range []string{"build-htg", "annotate", "par-build"} {
		if !byName[name].Cacheable {
			t.Fatalf("structural pass %s must be cacheable (remap-on-restore snapshots)", name)
		}
	}
	if out := byName["annotate"].Output; out != "htg-annotated+sched-input" {
		t.Fatalf("annotate outputs %q; it derives the scheduling problem schedule reads", out)
	}
	if !byName["schedule"].Loop || byName["build-htg"].Loop {
		t.Fatal("loop markers wrong")
	}
}

// TestIRMemoTracksProgram checks the fingerprints the pipeline carries
// instead of recomputing them (a transform restore's, kept across
// label-loops; a par-build snapshot's, seeded by its restore): after
// every pass of three compiles on one cache (the first sights every key,
// the second stores and the third restores every cacheable pass), a
// memo that belongs to the live IR holds that program's fingerprint. It
// also checks that the SPM promotions the report lists are variables of
// the program the compile returns, which a lazy thaw resolves against
// its one clone.
func TestIRMemoTracksProgram(t *testing.T) {
	ctx := context.Background()
	multiRound := false
	for _, uc := range usecases.All() {
		src, err := uc.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, plat := range []string{"xentium4", "xentium8", "leon3-2x2", "hetero-2f2s"} {
			opt := DefaultOptions(uc.Entry, uc.Args, adl.Builtin(plat))
			opt.Passes.Cache = pass.NewCache(0)
			var promoted [3][]string
			for compile := 0; compile < 3; compile++ {
				prog, err := ir.Lower(src, uc.Entry, uc.Args)
				if err != nil {
					t.Fatal(err)
				}
				checked := 0
				mgr := newManager(opt.Passes)
				mgr.AfterPass = func(p *pass.Pass, c *pass.Context) {
					m, ok := pass.Get(c, keyIRMemo)
					if !ok || m == nil || m.cell != pass.Need(c, keyIR) {
						return
					}
					checked++
					if wcet.FingerprintProgram(m.cell.program()) != m.fp {
						t.Errorf("%s/%s compile %d: stale IR fingerprint after pass %q (round %d)",
							uc.Name, plat, compile, p.Name, c.Round)
					}
				}
				art, err := backEnd(ctx, mgr, prog, opt, nil)
				if err != nil {
					t.Fatalf("%s/%s compile %d: %v", uc.Name, plat, compile, err)
				}
				if checked == 0 {
					t.Fatalf("%s/%s compile %d: no pass left a memo to check", uc.Name, plat, compile)
				}
				multiRound = multiRound || art.FeedbackRounds > 1
				if compile == 2 {
					for _, ag := range art.PassTrace.Aggregate() {
						if ag.CacheMisses != 0 {
							t.Errorf("%s/%s: the warm compile ran cacheable pass %q", uc.Name, plat, ag.Pass)
						}
					}
				}
				vars := make(map[*ir.Var]bool, len(art.IR.Vars))
				for _, v := range art.IR.Vars {
					vars[v] = true
				}
				for _, v := range art.Transform.SPM.Promoted {
					if !vars[v] {
						t.Errorf("%s/%s compile %d: promoted %s is not a variable of the returned program",
							uc.Name, plat, compile, v.Name)
					}
					promoted[compile] = append(promoted[compile], v.Name)
				}
			}
			for compile := 1; compile < 3; compile++ {
				if !reflect.DeepEqual(promoted[0], promoted[compile]) {
					t.Errorf("%s/%s: compile %d promoted %v, the first compile %v",
						uc.Name, plat, compile, promoted[compile], promoted[0])
				}
			}
		}
	}
	if !multiRound {
		t.Error("no configuration ran a second feedback round, so no par-build restore seeded the memo")
	}
}
