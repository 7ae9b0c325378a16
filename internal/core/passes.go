package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"argo/internal/adl"
	"argo/internal/fault"
	"argo/internal/htg"
	"argo/internal/ir"
	"argo/internal/par"
	"argo/internal/pass"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/sim"
	"argo/internal/syswcet"
	"argo/internal/transform"
	"argo/internal/wcet"
)

// This file binds the generic pass manager (internal/pass) to the
// concrete ARGO pipeline: it declares the typed artifact slots, lifts
// the transformation registry into passes, and defines the structural
// passes (HTG extraction, scheduling, parallel program construction,
// validation) together with their cache contracts.
//
// Every pass in the ladder is cacheable; what differs is the freeze
// discipline each output needs:
//
//   - Transformation passes snapshot a deep clone of the rewritten
//     program. A restore installs that snapshot, with its fingerprint,
//     as a deferred thaw (irCell): the first reader clones it once, so a
//     run of restores clones once and no cached state ever aliases a
//     live pipeline's IR.
//   - The scheduling problem (task WCET vectors, dependence volumes,
//     platform) and the schedule pass's output (*sched.Schedule,
//     *syswcet.Result) are pointer-free value data, deep-copied on both
//     freeze and thaw.
//   - The structural passes (build-htg, annotate, par-build) produce
//     artifacts that hold live *ir.Var/ir.Stmt pointers. They freeze
//     through the remap-on-restore snapshot codec (ir.SnapshotIndex/
//     ir.SnapshotTable: vars by registration index, stmts by traversal
//     order — the transformSnap trick generalized) and thaw against
//     whichever equal-fingerprint program the restoring pipeline holds.
//
// The structural fingerprints lean on one determinism chain: given the
// IR content (including variable storage, which wcet.FingerprintProgram
// covers), the canonical platform encoding, the WCET engine, the task
// cap, and the scheduling policy, every pass of the ladder is a
// deterministic function — so those values content-address each pass's
// output.
// Feedback rounds key distinctly for free: par-build's demotions mutate
// variable storage between rounds, which changes the IR fingerprint,
// and a restored par-build replays the identical mutations (see
// par.Snapshot.Thaw), so cached replays reproduce the round sequence
// bit-identically.

// Typed artifact slots of the pipeline.
var (
	keyModel = pass.NewKey[*scil.Program]("scil")
	keyIR    = pass.NewKey[*irCell]("ir")
	// keyReport accumulates the merged transformation report;
	// keyDelta holds the contribution of the transform pass that just
	// ran (scratch slot consumed by Snapshot).
	keyReport = pass.NewKey[*transform.Report]("transform-report")
	keyDelta  = pass.NewKey[*transform.Report]("transform-delta")
	keyModels = pass.NewKey[[]wcet.CostModel]("cost-models")
	// keyCanon is the SHA-256 of the target platform's canonical ADL
	// encoding (part of the structural and schedule passes' cache keys),
	// nil when the platform has no canonical encoding.
	keyCanon = pass.NewKey[[]byte]("platform-canon")
	keyBase  = pass.NewKey[*graphCell]("htg")
	keyGraph = pass.NewKey[*htg.Graph]("htg-annotated")
	keyInput = pass.NewKey[*sched.Input]("sched-input")
	keySched = pass.NewKey[*sched.Schedule]("schedule")
	keySys   = pass.NewKey[*syswcet.Result]("syswcet")
	keyPar   = pass.NewKey[*par.Program]("par-program")
	keySeq   = pass.NewKey[int64]("seq-wcet")
	// keyEngine is the resolved WCET engine selection. Its Spec is part
	// of every structural fingerprint: engines legitimately produce
	// different bounds, and "both" must key separately from "ipet" so a
	// cached annotate can never skip the cross-check.
	keyEngine = pass.NewKey[wcet.Selection]("wcet-engine")
)

// irCell holds the live IR artifact, optionally as a deferred thaw of a
// transform snapshot. On a fully warm compile every transform pass
// restores, and each restore is overwritten by the next before any Run
// reads the program: the cell installs the snapshot instead of a clone,
// and the first reader (label-loops, on a fully warm compile) clones it
// once. The clone is the pipeline's private program; the cached one is
// never handed out. The cell memoizes, so every reader sees one program
// instance, exactly as with an eager Put.
type irCell struct {
	once sync.Once
	snap *transformSnap
	// rep receives the snapshot's SPM promotions, resolved against the
	// clone. spm, the only pass that promotes, is the last
	// transformation, so no later restore replaces its cell unthawed.
	rep  *transform.Report
	prog *ir.Program
}

func liveIR(p *ir.Program) *irCell { return &irCell{prog: p} }

func (ic *irCell) program() *ir.Program {
	ic.once.Do(func() {
		if ic.snap == nil {
			return
		}
		ic.prog = ic.snap.prog.Clone()
		if n := len(ic.snap.promoted); n > 0 {
			ic.rep.SPM.Promoted = make([]*ir.Var, n)
			for i, j := range ic.snap.promoted {
				ic.rep.SPM.Promoted[i] = ic.prog.Vars[j]
			}
		}
	})
	return ic.prog
}

// irProg materializes the live IR program.
func irProg(c *pass.Context) *ir.Program { return pass.Need(c, keyIR).program() }

func dumpIR(c *pass.Context) string { return irProg(c).Dump() }

// irMemo caches, per pipeline execution, the derived views of the live
// IR that the cache machinery rebuilds constantly: its content
// fingerprint (one full-program walk per structural-pass key without
// the memo) and the snapshot codec's freeze index / thaw table (one
// statement traversal per freeze/restore). All three are pure functions
// of the program's current state, so the memo is keyed to the IR cell
// AND explicitly invalidated by every pass that mutates what they read
// in place (transform and par-build runs) — the cell check alone cannot
// see in-place mutation. Two in-place writers keep it: label-loops
// writes only For.Label, which neither wcet.FingerprintProgram nor the
// codec's positions read, and a par-build restore replays storage
// mutations whose resulting fingerprint its snapshot recorded.
type irMemo struct {
	cell *irCell
	fp   wcet.Fingerprint
	idx  *ir.SnapshotIndex
	tab  *ir.SnapshotTable
}

var keyIRMemo = pass.NewKey[*irMemo]("ir-memo")

func irMemoOf(c *pass.Context) *irMemo {
	cell := pass.Need(c, keyIR)
	if m, ok := pass.Get(c, keyIRMemo); ok && m != nil && m.cell == cell {
		return m
	}
	m := &irMemo{cell: cell, fp: wcet.FingerprintProgram(cell.program())}
	pass.Put(c, keyIRMemo, m)
	return m
}

func irMemoIndex(c *pass.Context) *ir.SnapshotIndex {
	m := irMemoOf(c)
	if m.idx == nil {
		m.idx = ir.NewSnapshotIndex(m.cell.program())
	}
	return m.idx
}

func irMemoTable(c *pass.Context) *ir.SnapshotTable {
	m := irMemoOf(c)
	if m.tab == nil {
		m.tab = ir.NewSnapshotTable(m.cell.program())
	}
	return m.tab
}

// invalidateIRMemo must be called by any code that mutates, in place,
// live IR state the memo's views read; the next memo access recomputes
// against the mutated state.
func invalidateIRMemo(c *pass.Context) { pass.Put(c, keyIRMemo, nil) }

// graphCell holds the structural task graph, optionally as a deferred
// thaw. On a fully warm compile annotate restores too, so no Run reads
// build-htg's graph and its restore never pays the thaw. Deferral is
// sound: thaw resolves variables and statements purely by position,
// which later in-place IR mutations (par-build's storage side effect)
// don't disturb. The cell memoizes, so every reader sees one graph
// instance, exactly as with an eager Put.
type graphCell struct {
	once sync.Once
	thaw func() *htg.Graph
	g    *htg.Graph
}

func (gc *graphCell) graph() *htg.Graph {
	gc.once.Do(func() {
		if gc.thaw != nil {
			gc.g = gc.thaw()
		}
	})
	return gc.g
}

// baseGraph / annGraph read the structural and annotated graph
// artifacts.
func baseGraph(c *pass.Context) *htg.Graph { return pass.Need(c, keyBase).graph() }
func annGraph(c *pass.Context) *htg.Graph  { return pass.Need(c, keyGraph) }

// --- front-end passes -------------------------------------------------------

func checkPass() *pass.Pass {
	return &pass.Pass{
		Name: "check", Input: "scil", Output: "scil",
		Run: func(c *pass.Context) error {
			if errs := scil.Check(pass.Need(c, keyModel), scil.CheckWCET); len(errs) > 0 {
				return fmt.Errorf("model check failed: %v", errs[0])
			}
			return nil
		},
	}
}

func lowerPass(entry string, args []ir.ArgSpec) *pass.Pass {
	return &pass.Pass{
		Name: "lower", Input: "scil", Output: "ir",
		Run: func(c *pass.Context) error {
			prog, err := ir.Lower(pass.Need(c, keyModel), entry, args)
			if err != nil {
				return err
			}
			pass.Put(c, keyIR, liveIR(prog))
			return nil
		},
		Dump: dumpIR,
	}
}

// --- transformation passes --------------------------------------------------

// transformSnap is the frozen result of one cacheable transformation
// pass: the rewritten program (a private clone, cloned again by the
// irCell that thaws it) plus the pass's report contribution.
// SPM-promoted variables are stored as indices into prog.Vars — Clone
// preserves registration order, so the pointers are rebuilt against
// whichever clone the pipeline thaws.
type transformSnap struct {
	prog     *ir.Program
	rep      transform.Report
	promoted []int
	// fp is the content fingerprint of prog, recorded at freeze time.
	// Clone preserves content fingerprints (registration and traversal
	// order are invariant — the same property the whole snapshot codec
	// rests on), so a restore can seed the pipeline's irMemo with it and
	// the next pass's cache key costs no program walk.
	fp wcet.Fingerprint
}

func freezeTransform(live *ir.Program, delta transform.Report, fp wcet.Fingerprint) *transformSnap {
	s := &transformSnap{prog: live.Clone(), rep: delta, fp: fp}
	if n := len(delta.SPM.Promoted); n > 0 {
		idx := make(map[*ir.Var]int, len(live.Vars))
		for i, v := range live.Vars {
			idx[v] = i
		}
		s.promoted = make([]int, n)
		for i, v := range delta.SPM.Promoted {
			j, ok := idx[v]
			if !ok {
				return nil // promoted var not in the table: don't cache
			}
			s.promoted[i] = j
		}
		s.rep.SPM.Promoted = nil
	}
	return s
}

func transformPasses(tOpt transform.Options, disabled map[string]bool) []*pass.Pass {
	var out []*pass.Pass
	for _, spec := range transform.Plan(tOpt) {
		if disabled[spec.Name] {
			continue
		}
		spec := spec
		out = append(out, &pass.Pass{
			Name: spec.Name, Input: "ir", Output: "ir",
			Run: func(c *pass.Context) error {
				var delta transform.Report
				spec.Run(irProg(c), tOpt, &delta)
				invalidateIRMemo(c)
				pass.Need(c, keyReport).Merge(delta)
				pass.Put(c, keyDelta, &delta)
				return nil
			},
			Fingerprint: func(c *pass.Context) ([]byte, bool) {
				fp := irMemoOf(c).fp
				return append(fp[:], spec.Params(tOpt)...), true
			},
			Snapshot: func(c *pass.Context) any {
				// irMemoOf also warms the memo for the next pass's
				// Fingerprint (Run just invalidated it).
				s := freezeTransform(irProg(c), *pass.Need(c, keyDelta), irMemoOf(c).fp)
				if s == nil {
					return nil
				}
				return s
			},
			Restore: func(c *pass.Context, snap any) {
				ts := snap.(*transformSnap)
				rep := pass.Need(c, keyReport)
				rep.Merge(ts.rep)
				cell := &irCell{snap: ts, rep: rep}
				pass.Put(c, keyIR, cell)
				pass.Put(c, keyIRMemo, &irMemo{cell: cell, fp: ts.fp})
			},
			Dump: dumpIR,
		})
	}
	return out
}

// --- structural passes ------------------------------------------------------

// irFingerprint content-addresses the live IR alone (structure, names,
// storage classes, temp counter) — the complete input of build-htg.
func irFingerprint(c *pass.Context) ([]byte, bool) {
	fp := irMemoOf(c).fp
	return fp[:], true
}

// structuralFingerprint content-addresses the structural ladder's input
// chain: the live IR, the canonical platform encoding's digest, the WCET
// engine selection, and any pass-specific tuning values (task cap,
// policy). ok is false when the platform has no canonical encoding.
func structuralFingerprint(c *pass.Context, extras ...uint64) ([]byte, bool) {
	canon := pass.Need(c, keyCanon)
	if canon == nil {
		return nil, false
	}
	spec := pass.Need(c, keyEngine).Spec
	fp := irMemoOf(c).fp
	out := make([]byte, 0, len(fp)+len(canon)+1+len(spec)+1+8*len(extras))
	out = append(out, fp[:]...)
	out = append(out, canon...)
	out = append(out, 0)
	out = append(out, spec...)
	out = append(out, 0)
	var b [8]byte
	for _, e := range extras {
		binary.LittleEndian.PutUint64(b[:], e)
		out = append(out, b[:]...)
	}
	return out, true
}

func labelLoopsPass() *pass.Pass {
	return &pass.Pass{
		Name: "label-loops", Input: "ir", Output: "ir",
		Run: func(c *pass.Context) error {
			// Labels are invisible to the irMemo's views, so it stays valid.
			transform.LabelLoops(irProg(c))
			return nil
		},
		Dump: dumpIR,
	}
}

func buildHTGPass() *pass.Pass {
	return &pass.Pass{
		Name: "build-htg", Input: "ir", Output: "htg",
		Run: func(c *pass.Context) error {
			pass.Put(c, keyBase, &graphCell{g: htg.Build(irProg(c))})
			return nil
		},
		Fingerprint: irFingerprint,
		Snapshot: func(c *pass.Context) any {
			if f, ok := baseGraph(c).Freeze(irMemoIndex(c)); ok {
				return f
			}
			return nil
		},
		Restore: func(c *pass.Context, snap any) {
			pass.Put(c, keyBase, &graphCell{thaw: func() *htg.Graph {
				return snap.(*htg.FrozenGraph).Thaw(irMemoTable(c))
			}})
		},
		Dump: func(c *pass.Context) string { return baseGraph(c).Dump() },
	}
}

// --- feedback-loop passes (run once per placement/analysis round) -----------

// annotSnap is the frozen annotate result: the annotated (and, under a
// task cap, coarsened) graph and the scheduling problem derived from
// it. The problem's tables are pointer-free value data; its platform is
// rebound on restore (equal canonical encoding).
type annotSnap struct {
	g  *htg.FrozenGraph
	in *sched.Input
}

// annotatePass is the loop's one cached step for everything the
// structural key determines: it annotates a clone of the structural
// graph with code-level WCETs, coarsens it to at most maxTasks tasks
// when that cap is set, and derives the scheduling problem.
func annotatePass(platform *adl.Platform, maxTasks int) *pass.Pass {
	return &pass.Pass{
		Name: "annotate", Input: "htg", Output: "htg-annotated+sched-input",
		Run: func(c *pass.Context) error {
			// Storage classes change between rounds (demotions), so each
			// round re-annotates a fresh clone of the structural graph.
			g := baseGraph(c).Clone()
			if err := htg.AnnotateWith(g, pass.Need(c, keyModels), pass.Need(c, keyEngine)); err != nil {
				return err
			}
			if maxTasks > 0 && len(g.Nodes) > maxTasks {
				g.MergeUntil(maxTasks)
			}
			pass.Put(c, keyGraph, g)
			pass.Put(c, keyInput, sched.FromHTG(g, platform))
			return nil
		},
		Fingerprint: func(c *pass.Context) ([]byte, bool) {
			return structuralFingerprint(c, uint64(maxTasks))
		},
		Snapshot: func(c *pass.Context) any {
			f, ok := annGraph(c).Freeze(irMemoIndex(c))
			if !ok {
				return nil
			}
			return &annotSnap{g: f, in: cloneSchedInput(pass.Need(c, keyInput))}
		},
		Restore: func(c *pass.Context, snap any) {
			s := snap.(*annotSnap)
			in := cloneSchedInput(s.in)
			in.Platform = platform
			// par-build reads the graph in this same round, so a deferred
			// thaw would save nothing.
			pass.Put(c, keyGraph, s.g.Thaw(irMemoTable(c)))
			pass.Put(c, keyInput, in)
		},
		Dump: func(c *pass.Context) string { return annGraph(c).Dump() },
	}
}

// cloneSchedInput deep-copies a scheduling problem (Platform pointer
// shared; callers rebind it as needed).
func cloneSchedInput(in *sched.Input) *sched.Input {
	out := &sched.Input{Platform: in.Platform}
	out.Tasks = make([]sched.Task, len(in.Tasks))
	for i, t := range in.Tasks {
		t.WCET = append([]int64(nil), t.WCET...)
		out.Tasks[i] = t
	}
	out.Deps = append([]sched.Dep(nil), in.Deps...)
	return out
}

// schedSnap is the frozen (schedule, system analysis) pair; both are
// pointer-free value data, deep-copied on freeze and thaw.
type schedSnap struct {
	s   *sched.Schedule
	sys *syswcet.Result
}

func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Placements = append([]sched.Placement(nil), s.Placements...)
	return &c
}

func cloneSysResult(r *syswcet.Result) *syswcet.Result {
	c := *r
	c.Start = append([]int64(nil), r.Start...)
	c.Finish = append([]int64(nil), r.Finish...)
	c.TaskBound = append([]int64(nil), r.TaskBound...)
	c.InterferencePerTask = append([]int64(nil), r.InterferencePerTask...)
	c.Contenders = append([]int(nil), r.Contenders...)
	return &c
}

// fingerprintScheduleInput content-addresses everything the schedule
// pass reads: the canonical platform encoding's digest, the policy, and
// the full task/dependence tables (per-core WCET vectors, shared-access
// bounds, communication volumes).
func fingerprintScheduleInput(in *sched.Input, pol sched.Policy, canon []byte) ([]byte, bool) {
	if canon == nil {
		return nil, false
	}
	h := sha256.New()
	var b [8]byte
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	h.Write(canon)
	h.Write([]byte{0})
	w64(uint64(pol))
	w64(uint64(len(in.Tasks)))
	for _, t := range in.Tasks {
		w64(uint64(t.ID))
		io.WriteString(h, t.Label)
		h.Write([]byte{0})
		w64(uint64(t.SharedAccesses))
		w64(uint64(len(t.WCET)))
		for _, w := range t.WCET {
			w64(uint64(w))
		}
	}
	w64(uint64(len(in.Deps)))
	for _, d := range in.Deps {
		w64(uint64(d.From))
		w64(uint64(d.To))
		w64(uint64(d.VolumeBytes))
	}
	return h.Sum(nil), true
}

func schedulePass(policy sched.Policy) *pass.Pass {
	return &pass.Pass{
		Name: "schedule", Input: "sched-input", Output: "schedule+syswcet",
		Run: func(c *pass.Context) error {
			s, sys, err := scheduleAndAnalyze(pass.Need(c, keyInput), policy)
			if err != nil {
				return err
			}
			pass.Put(c, keySched, s)
			pass.Put(c, keySys, sys)
			return nil
		},
		Fingerprint: func(c *pass.Context) ([]byte, bool) {
			return fingerprintScheduleInput(pass.Need(c, keyInput), policy, pass.Need(c, keyCanon))
		},
		Snapshot: func(c *pass.Context) any {
			return &schedSnap{
				s:   cloneSchedule(pass.Need(c, keySched)),
				sys: cloneSysResult(pass.Need(c, keySys)),
			}
		},
		Restore: func(c *pass.Context, snap any) {
			s := snap.(*schedSnap)
			pass.Put(c, keySched, cloneSchedule(s.s))
			pass.Put(c, keySys, cloneSysResult(s.sys))
		},
		Dump: func(c *pass.Context) string {
			s := pass.Need(c, keySched)
			sys := pass.Need(c, keySys)
			var sb strings.Builder
			fmt.Fprintf(&sb, "policy=%v cores=%d makespan=%d iterations=%d\n", s.Policy, s.Cores, sys.Makespan, sys.Iterations)
			for _, pl := range s.Placements {
				fmt.Fprintf(&sb, "task %d -> core %d [%d, %d] bound=%d intf=%d\n",
					pl.Task, pl.Core, sys.Start[pl.Task], sys.Finish[pl.Task], sys.TaskBound[pl.Task], sys.InterferencePerTask[pl.Task])
			}
			return sb.String()
		},
	}
}

// parSnap is a frozen par-build result plus the fingerprint of the IR
// after Build's storage mutations, so a restore, which replays them,
// needs no program walk to key the next round.
type parSnap struct {
	s  *par.Snapshot
	fp wcet.Fingerprint
}

func parBuildPass(platform *adl.Platform, maxTasks int, policy sched.Policy) *pass.Pass {
	return &pass.Pass{
		Name: "par-build", Input: "schedule+syswcet", Output: "par-program",
		Run: func(c *pass.Context) error {
			pp, err := par.Build(irProg(c), annGraph(c),
				pass.Need(c, keyInput), pass.Need(c, keySched), pass.Need(c, keySys), platform)
			// Build mutates variable storage (shared-buffer assignment)
			// even on error paths, so the memo is stale either way.
			invalidateIRMemo(c)
			if err != nil {
				return err
			}
			pass.Put(c, keyPar, pp)
			return nil
		},
		Fingerprint: func(c *pass.Context) ([]byte, bool) {
			// The fingerprint is taken before Run mutates variable storage,
			// so it addresses the round's input state; the snapshot's thaw
			// replays the mutations (see par.Snapshot.Thaw).
			return structuralFingerprint(c, uint64(maxTasks), uint64(policy))
		},
		Snapshot: func(c *pass.Context) any {
			s, ok := pass.Need(c, keyPar).Freeze(irMemoIndex(c))
			if !ok {
				return nil
			}
			return &parSnap{s: s, fp: irMemoOf(c).fp}
		},
		Restore: func(c *pass.Context, snap any) {
			ps := snap.(*parSnap)
			m := irMemoOf(c)
			pp := ps.s.Thaw(irMemoTable(c),
				platform, irProg(c), annGraph(c),
				pass.Need(c, keyInput), pass.Need(c, keySched), pass.Need(c, keySys))
			// Thaw replays Build's storage mutations on the live program,
			// which moves its fingerprint to the recorded one; positions,
			// and so the thaw table, are unchanged.
			m.fp = ps.fp
			pass.Put(c, keyPar, pp)
		},
		Dump: func(c *pass.Context) string {
			pp := pass.Need(c, keyPar)
			return fmt.Sprintf("cores=%d buffers=%d signals=%d demoted=%d prologue=%d epilogue=%d bound=%d",
				len(pp.CoreEntries), len(pp.Buffers), pp.Signals, len(pp.Demoted),
				pp.PrologueCycles, pp.EpilogueCycles, pp.BoundMakespan())
		},
	}
}

// --- post-loop passes -------------------------------------------------------

func validatePass() *pass.Pass {
	return &pass.Pass{
		Name: "validate", Input: "par-program", Output: "par-program",
		Run: func(c *pass.Context) error {
			if err := pass.Need(c, keyPar).Validate(); err != nil {
				return fmt.Errorf("parallel program invalid: %v", err)
			}
			return nil
		},
	}
}

func seqWCETPass() *pass.Pass {
	return &pass.Pass{
		Name: "seq-wcet", Input: "htg-annotated", Output: "seq-wcet",
		Run: func(c *pass.Context) error {
			pass.Put(c, keySeq, annGraph(c).SequentialWCET(0))
			return nil
		},
		Dump: func(c *pass.Context) string {
			return fmt.Sprintf("sequential-wcet=%d", pass.Need(c, keySeq))
		},
	}
}

// --- pipeline assembly ------------------------------------------------------

// pipeline is the back-end pass sequence for one set of options:
// pre-loop passes run once, loop passes run once per feedback round,
// post-loop passes run after the storage assignment stabilized.
type pipeline struct {
	pre, loop, post []*pass.Pass
}

func buildPipeline(opt Options, tOpt transform.Options, disabled map[string]bool) pipeline {
	return pipeline{
		pre:  append(transformPasses(tOpt, disabled), labelLoopsPass(), buildHTGPass()),
		loop: []*pass.Pass{annotatePass(opt.Platform, opt.MaxTasks), schedulePass(opt.Policy), parBuildPass(opt.Platform, opt.MaxTasks, opt.Policy)},
		post: []*pass.Pass{validatePass(), seqWCETPass()},
	}
}

// disabledSet validates -disable-pass names: only transformation passes
// may be disabled (the structural passes are load-bearing).
func disabledSet(names []string) (map[string]bool, error) {
	if len(names) == 0 {
		return nil, nil
	}
	valid := make(map[string]bool)
	for _, n := range transform.PassNames() {
		valid[n] = true
	}
	out := make(map[string]bool, len(names))
	for _, n := range names {
		if !valid[n] {
			return nil, fmt.Errorf("core: unknown disableable pass %q (disableable: %s)", n, strings.Join(transform.PassNames(), ", "))
		}
		out[n] = true
	}
	return out, nil
}

// DescribePipeline returns the registered pass graph the options select,
// in execution order (argocc -passes, make passes). The front-end passes
// (check, lower) are included; loop passes are marked per-round.
func DescribePipeline(opt Options) ([]pass.Desc, error) {
	tOpt := opt.Transforms
	if opt.AutoSPM {
		if opt.Platform != nil {
			tOpt.SPM = spmOptionsFor(opt.Platform)
		} else {
			tOpt.SPM = &transform.SPMOptions{}
		}
	}
	disabled, err := disabledSet(opt.Passes.Disable)
	if err != nil {
		return nil, err
	}
	pl := buildPipeline(opt, tOpt, disabled)
	var ds []pass.Desc
	for _, p := range []*pass.Pass{checkPass(), lowerPass("", nil)} {
		ds = append(ds, p.Describe(false))
	}
	for _, p := range pl.pre {
		ds = append(ds, p.Describe(false))
	}
	for _, p := range pl.loop {
		ds = append(ds, p.Describe(true))
	}
	for _, p := range pl.post {
		ds = append(ds, p.Describe(false))
	}
	return ds, nil
}

// SimulateContext executes the compiled parallel program on the
// platform simulator, adapted as one instrumented "simulate" pass:
// cancellation, timing, and the argo_pass_ns/argo_pass_runs expvars
// follow the pass-manager contract like every pipeline stage.
func SimulateContext(ctx context.Context, a *Artifacts, inputs [][]float64) (*sim.Report, error) {
	var rep *sim.Report
	p := &pass.Pass{
		Name: "simulate", Input: "par-program", Output: "sim-report",
		Run: func(c *pass.Context) error {
			r, err := sim.RunContext(c.Ctx(), a.Parallel, inputs)
			if err != nil {
				return err
			}
			rep = r
			return nil
		},
	}
	if err := (&pass.Manager{}).Run(pass.NewContext(ctx), p); err != nil {
		return nil, err
	}
	return rep, nil
}

// SimulateFaultyContext is SimulateContext under deterministic fault
// injection (internal/fault): the run is adapted as one instrumented
// "simulate-faulty" pass. A zero spec behaves exactly like
// SimulateContext.
func SimulateFaultyContext(ctx context.Context, a *Artifacts, inputs [][]float64, spec fault.Spec) (*sim.Report, error) {
	var rep *sim.Report
	p := &pass.Pass{
		Name: "simulate-faulty", Input: "par-program", Output: "sim-report",
		Run: func(c *pass.Context) error {
			r, err := sim.RunFaulty(c.Ctx(), a.Parallel, inputs, spec)
			if err != nil {
				return err
			}
			rep = r
			return nil
		},
	}
	if err := (&pass.Manager{}).Run(pass.NewContext(ctx), p); err != nil {
		return nil, err
	}
	return rep, nil
}

// PassNames returns every pass name DescribePipeline can produce for the
// options, sorted (argocc -dump-after validation).
func PassNames(opt Options) []string {
	ds, err := DescribePipeline(opt)
	if err != nil {
		return nil
	}
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}
