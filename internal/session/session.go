// Package session implements interactive what-if sessions: a persistent
// per-session store of compiled artifacts (source text, options, last
// analysis result, fault spec) with a typed edit API, so that IDE-style
// traffic — each small edit a request — pays only for the dirty pass
// suffix instead of a cold compile.
//
// The paper's tool flow (§II, Figure 1) is explicitly iterative:
// developers tune the model, the mapping, and the platform until the
// WCET bound meets the deadline. A session keeps the machinery of that
// loop warm across requests: every re-analysis runs on the process-wide
// content-addressed pass cache (internal/pass.Global), so passes whose
// input fingerprints are unchanged restore their recorded snapshots
// instead of re-running, and the system-level interference fixed point
// (internal/syswcet) re-converges incrementally over its dirty task
// sets. On top of the pass cache sits a bounded result memo: revisiting
// a configuration the session has already analyzed (A/B-ing two
// parameter values, toggling a transform back) restores the finished
// artifacts whole — the empty-dirty-suffix limit case, no pass runs at
// all. Correctness is differential by construction: after every edit
// the session result is bit-identical to a cold compile of the edited
// source — Verify asserts it on demand, the tests assert it over
// randomized and fuzzed edit sequences.
package session

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/memo"
	"argo/internal/pass"
	"argo/internal/sim"
	"argo/internal/syswcet"
)

// Session is one interactive what-if session: the current source text
// and options, the last analysis and a memo of finished analyses.
// Incremental re-analysis restores pass snapshots from pass.Global,
// which every session and compile of the process shares. All methods
// are safe for concurrent use; edits on one session are serialized.
type Session struct {
	// ID is the session handle (assigned by the Manager; empty for
	// sessions created directly via New).
	ID string
	// Meta is opaque embedder state attached to the session (the service
	// stores the originating use case here so simulate requests can
	// regenerate inputs). Set it once, right after creation, before the
	// session is shared.
	Meta any

	mu     sync.Mutex
	source string
	opt    core.Options // Platform is a session-private copy
	faults fault.Spec
	art    *core.Artifacts
	fp     string
	// edits counts committed edits. It is written under mu and read
	// without it, so a listing never waits for an edit in flight.
	edits atomic.Int64

	// memo is the session's result memo: finished artifacts keyed by
	// configuration fingerprint (source, platform, policy, disabled
	// passes — exactly the state edits can move). Revisiting an already
	// analyzed configuration (toggling a transform back, A/B-ing two
	// parameter values) is the empty-dirty-suffix limit case of
	// incremental re-analysis: nothing re-runs, the finished result is
	// restored whole.
	memo *memo.Cache[string, memoEntry]

	closed atomic.Bool
}

// memoEntry is one memoized analysis: the immutable artifacts and their
// result fingerprint.
type memoEntry struct {
	art *core.Artifacts
	fp  string
}

// EditResult reports one analysis of a session (creation or edit).
type EditResult struct {
	// Artifacts is the (re-)analysis result. Callers must treat it as
	// read-only; it is shared with the session until the next edit.
	Artifacts *core.Artifacts
	// Fingerprint content-addresses the full result (schedule, bounds,
	// windows, IR); two analyses with equal fingerprints are
	// bit-identical.
	Fingerprint string
	// PassesSkipped / PassesReran split the pipeline's passes into the
	// clean set (restored from the pass cache or the result memo without
	// running) and the dirty suffix that actually re-ran.
	PassesSkipped, PassesReran int
	// ChangedTasks lists the tasks whose analyzed window, bound, or
	// interference the edit moved (all tasks for a creation or a
	// graph-shape change).
	ChangedTasks []int
	// BoundDelta is newBound - oldBound (0 for creation).
	BoundDelta int64
	// Wall is the re-analysis wall time.
	Wall time.Duration
	// Verified reports that a differential cold compile was run and
	// matched bit-identically.
	Verified bool
}

// ApplyOptions tunes one Apply call.
type ApplyOptions struct {
	// OnTiming observes every completed pass (streaming: one event per
	// pass). Called on the applying goroutine.
	OnTiming func(pass.Timing)
	// Verify re-runs the edited source as a cold, cache-free compile and
	// fails the edit if the result is not bit-identical to the
	// incremental re-analysis (the differential soundness contract).
	Verify bool
}

// sessionMemoEntries bounds the per-session result memo. Each entry
// pins one full artifact set, so the bound is small: it covers the
// handful of configurations an interactive A/B comparison ping-pongs
// between, not the session's whole history.
const sessionMemoEntries = 16

// New creates a session by cold-compiling source under opt. The
// platform is deep-copied so ADL edits never alias the caller's value.
func New(ctx context.Context, source string, opt core.Options, faults fault.Spec) (*Session, *EditResult, error) {
	return newSession(ctx, source, opt, faults, ApplyOptions{})
}

func newSession(ctx context.Context, source string, opt core.Options, faults fault.Spec, aopt ApplyOptions) (*Session, *EditResult, error) {
	if opt.Platform == nil {
		return nil, nil, fmt.Errorf("session: no platform")
	}
	if err := faults.Validate(); err != nil {
		return nil, nil, fmt.Errorf("session: faults: %v", err)
	}
	s := &Session{
		source: source,
		opt:    opt,
		faults: faults,
		memo:   memo.New[string, memoEntry](sessionMemoEntries),
	}
	s.opt.Platform = clonePlatform(opt.Platform)
	res, err := s.analyzeLocked(ctx, s.source, s.opt, aopt)
	if err != nil {
		return nil, nil, err
	}
	s.art = res.Artifacts
	s.fp = res.Fingerprint
	return s, res, nil
}

// Apply performs one edit: it validates the op, applies it to copies of
// the session state, re-analyzes (only the dirty pass suffix runs; the
// clean set restores from the pass cache), and commits the new state
// atomically on success. A failed edit leaves the session untouched.
// Edits on one session are serialized; distinct sessions apply
// concurrently.
func (s *Session) Apply(ctx context.Context, e Edit, aopt ApplyOptions) (*EditResult, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("session: closed")
	}
	if err := e.validate(); err != nil {
		return nil, fmt.Errorf("session: %s: %v", e.Op, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Work on copies; commit only after a successful re-analysis.
	source := s.source
	opt := s.opt
	opt.Platform = clonePlatform(s.opt.Platform)
	opt.Passes.Disable = append([]string(nil), s.opt.Passes.Disable...)
	faults := s.faults

	var err error
	switch e.Op {
	case OpReplaceFunc:
		source, err = applyReplaceFunc(source, e)
	case OpSetParam:
		err = applySetParam(opt.Platform, e)
	case OpToggleTransform:
		opt.Passes.Disable, err = applyToggleTransform(opt.Passes.Disable, e)
	case OpSetPolicy:
		opt.Policy = e.Policy
	case OpSetFaults:
		faults = e.Faults
	}
	if err != nil {
		return nil, fmt.Errorf("session: %s: %v", e.Op, err)
	}

	if !e.Reanalyzes() {
		// Fault-spec edits change future simulations, not the analysis:
		// commit without touching the artifacts.
		s.faults = faults
		s.edits.Add(1)
		return &EditResult{
			Artifacts:   s.art,
			Fingerprint: s.fp,
		}, nil
	}

	res, err := s.analyzeLocked(ctx, source, opt, aopt)
	if err != nil {
		return nil, err
	}
	res.ChangedTasks = syswcet.DiffTasks(s.art.System, res.Artifacts.System)
	res.BoundDelta = res.Artifacts.Bound() - s.art.Bound()
	s.source, s.opt, s.faults = source, opt, faults
	s.art, s.fp = res.Artifacts, res.Fingerprint
	s.edits.Add(1)
	return res, nil
}

// analyzeLocked runs the pipeline through the process-wide pass cache
// and, when requested, the differential cold compile. A configuration
// the session has already analyzed is restored whole from the result
// memo (every pass skipped, nothing re-runs). Caller holds s.mu (or
// owns s exclusively during creation).
func (s *Session) analyzeLocked(ctx context.Context, source string, opt core.Options, aopt ApplyOptions) (*EditResult, error) {
	t0 := time.Now()
	key := configKey(source, opt)
	var skipped, reran int
	ent, ok := s.memo.Get(key)
	if ok {
		memoHits.Add(1)
		skipped = len(ent.art.PassTrace.Passes)
		if aopt.OnTiming != nil {
			// Streaming observers still see one event per pass; a memo
			// restore is a cache hit for every one of them.
			for _, tm := range ent.art.PassTrace.Passes {
				aopt.OnTiming(pass.Timing{Pass: tm.Pass, Round: tm.Round, Cache: pass.CacheHit})
			}
		}
	} else {
		opt.Passes.NoCache = false
		opt.Passes.OnTiming = aopt.OnTiming
		art, err := core.CompileSourceContext(ctx, source, opt)
		if err != nil {
			return nil, err
		}
		skipped, reran = art.PassTrace.CacheCounts()
		ent = memoEntry{art: art, fp: ResultFingerprint(art)}
		s.memo.Put(key, ent)
	}
	res := &EditResult{
		Artifacts:     ent.art,
		Fingerprint:   ent.fp,
		PassesSkipped: skipped,
		PassesReran:   reran,
		Wall:          time.Since(t0),
	}
	if aopt.Verify {
		coldFP, err := coldFingerprint(ctx, source, opt)
		if err != nil {
			return nil, fmt.Errorf("session: differential verify compile: %w", err)
		}
		if coldFP != res.Fingerprint {
			return nil, fmt.Errorf("session: differential verify FAILED: incremental %s != cold %s (pass-cache soundness bug)",
				res.Fingerprint[:16], coldFP[:16])
		}
		res.Verified = true
	}
	return res, nil
}

// configKey content-addresses everything the pipeline's result depends
// on that a session edit can move: the source text, the platform
// description, the scheduling policy, and the disabled-pass set. The
// remaining options (entry, argument specs, transform tuning, loop
// caps) are fixed at session creation and hashed for completeness.
func configKey(source string, opt core.Options) string {
	h := sha256.New()
	wstr := func(v string) { io.WriteString(h, v); h.Write([]byte{0}) }
	wstr(source)
	wstr(opt.Entry)
	fmt.Fprintf(h, "%v|%v|%v|%d|%d", opt.Args, opt.Transforms, opt.AutoSPM, opt.MaxTasks, opt.FeedbackRounds)
	if canon, err := adl.Encode(opt.Platform); err == nil {
		h.Write(canon)
	}
	wstr(opt.Policy.String())
	disabled := append([]string(nil), opt.Passes.Disable...)
	sort.Strings(disabled)
	for _, name := range disabled {
		wstr(name)
	}
	return string(h.Sum(nil))
}

// coldFingerprint compiles source from scratch with pass caching off —
// the reference result the incremental session must match bit for bit.
func coldFingerprint(ctx context.Context, source string, opt core.Options) (string, error) {
	opt.Passes.Cache = nil
	opt.Passes.NoCache = true
	opt.Passes.OnTiming = nil
	art, err := core.CompileSourceContext(ctx, source, opt)
	if err != nil {
		return "", err
	}
	return ResultFingerprint(art), nil
}

// Simulate executes the session's compiled program on the given inputs
// under its stored fault spec (a zero spec simulates fault-free; an
// enabled spec is re-seeded with seed so input sweeps also sweep fault
// patterns). The compiled artifacts are reused — no recompile — which
// is the point of keeping them in a session.
func (s *Session) Simulate(ctx context.Context, inputs [][]float64, seed int64) (*sim.Report, *core.Artifacts, error) {
	s.mu.Lock()
	art := s.art
	spec := s.faults
	s.mu.Unlock()
	var rep *sim.Report
	var err error
	if spec.Enabled() {
		runSpec := spec
		runSpec.Seed += seed
		rep, err = core.SimulateFaultyContext(ctx, art, inputs, runSpec)
	} else {
		rep, err = core.SimulateContext(ctx, art, inputs)
	}
	return rep, art, err
}

// Snapshot returns the session's current state for read-only reporting:
// the source text, the last artifacts (do not mutate), the fault spec,
// and the edit count.
func (s *Session) Snapshot() (source string, art *core.Artifacts, faults fault.Spec, edits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.source, s.art, s.faults, int(s.edits.Load())
}

// Source returns the session's current canonical source text. A cold
// compile of exactly this text under the session's options reproduces
// the session's last result bit-identically.
func (s *Session) Source() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.source
}

// Fingerprint returns the content address of the last analysis result.
func (s *Session) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fp
}

// Options returns a copy of the session's current compile options (the
// platform is the session's private copy; treat it as read-only).
func (s *Session) Options() core.Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opt
}

// close marks the session evicted; subsequent Apply calls fail. An
// in-flight edit finishes normally (its client still gets the result;
// the session is simply no longer reachable).
func (s *Session) close() { s.closed.Store(true) }

// clonePlatform deep-copies an ADL platform so session edits never
// alias a built-in or a caller-owned description.
func clonePlatform(p *adl.Platform) *adl.Platform {
	c := *p
	c.Cores = append([]adl.Core(nil), p.Cores...)
	if p.Bus != nil {
		b := *p.Bus
		c.Bus = &b
	}
	if p.NoC != nil {
		n := *p.NoC
		c.NoC = &n
	}
	return &c
}

// ResultFingerprint content-addresses everything a compilation decided:
// options that shape the result, the schedule, the system-level
// analysis, the parallel program's phase bounds, and the transformed IR
// itself. Two runs with equal fingerprints are bit-identical for every
// value the service reports. This is the equality the differential
// session contract is stated in.
func ResultFingerprint(art *core.Artifacts) string {
	h := sha256.New()
	var b [8]byte
	w64 := func(v int64) { binary.LittleEndian.PutUint64(b[:], uint64(v)); h.Write(b[:]) }
	wstr := func(s string) { io.WriteString(h, s); h.Write([]byte{0}) }

	wstr(art.Options.Entry)
	if canon, err := adl.Encode(art.Options.Platform); err == nil {
		h.Write(canon)
	}
	wstr(art.Schedule.Policy.String())
	w64(int64(art.FeedbackRounds))
	w64(art.SequentialWCET)
	w64(art.Schedule.Makespan)
	w64(int64(art.Schedule.Cores))
	for _, pl := range art.Schedule.Placements {
		w64(int64(pl.Task))
		w64(int64(pl.Core))
		w64(pl.Start)
		w64(pl.Finish)
	}
	sys := art.System
	w64(sys.Makespan)
	w64(int64(sys.Iterations))
	for i := range sys.Start {
		w64(sys.Start[i])
		w64(sys.Finish[i])
		w64(sys.TaskBound[i])
		w64(sys.InterferencePerTask[i])
		w64(int64(sys.Contenders[i]))
	}
	w64(art.Parallel.PrologueCycles)
	w64(art.Parallel.EpilogueCycles)
	w64(art.Parallel.BoundMakespan())
	w64(int64(art.Parallel.Signals))
	w64(int64(len(art.Parallel.Buffers)))
	w64(int64(len(art.Parallel.Demoted)))
	// The IR's Dump text, rendered into a recycled buffer.
	bp := dumpBufs.Get().(*[]byte)
	*bp = art.IR.AppendDump((*bp)[:0])
	h.Write(*bp)
	h.Write([]byte{0})
	dumpBufs.Put(bp)
	return hex.EncodeToString(h.Sum(nil))
}

// dumpBufs recycles the buffers ResultFingerprint renders IR into.
var dumpBufs = sync.Pool{New: func() any { return new([]byte) }}
