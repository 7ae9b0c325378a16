package session

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/pass"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/transform"
	"argo/internal/usecases"
)

func testOptions(t testing.TB, ucName, platName string) (*usecases.UseCase, core.Options) {
	t.Helper()
	uc := usecases.ByName(ucName)
	if uc == nil {
		t.Fatalf("unknown use case %q", ucName)
	}
	plat := adl.Builtin(platName)
	if plat == nil {
		t.Fatalf("unknown platform %q", platName)
	}
	return uc, core.DefaultOptions(uc.Entry, uc.Args, plat)
}

func newTestSession(t testing.TB, ucName, platName string) *Session {
	t.Helper()
	uc, opt := testOptions(t, ucName, platName)
	s, res, err := New(context.Background(), uc.Source, opt, fault.Spec{})
	if err != nil {
		t.Fatalf("create %s/%s: %v", ucName, platName, err)
	}
	if res.Fingerprint == "" || res.Artifacts == nil {
		t.Fatalf("creation result incomplete: %+v", res)
	}
	return s
}

// coldCheck independently cold-compiles the session's canonical source
// under its options and asserts bit-identity with the session's last
// result — the differential contract, checked from outside the package's
// own Verify machinery.
func coldCheck(t *testing.T, s *Session) {
	t.Helper()
	opt := s.Options()
	opt.Passes.Cache = nil
	opt.Passes.NoCache = true
	opt.Passes.OnTiming = nil
	art, err := core.CompileSourceContext(context.Background(), s.Source(), opt)
	if err != nil {
		t.Fatalf("cold compile of session source: %v", err)
	}
	if got, want := ResultFingerprint(art), s.Fingerprint(); got != want {
		t.Fatalf("cold compile fingerprint %s != session fingerprint %s", got[:16], want[:16])
	}
}

// TestEditOpsDifferential applies one edit of every kind with Verify on:
// each apply internally cold-compiles the edited source and fails unless
// the incremental result is bit-identical.
func TestEditOpsDifferential(t *testing.T) {
	s := newTestSession(t, "polka", "xentium4")
	ctx := context.Background()
	vopt := ApplyOptions{Verify: true}

	// replace-func: append a fresh-variable statement to a function.
	prog, err := scil.Parse(s.Source())
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[1]
	text := scil.Format(&scil.Program{Funcs: []*scil.FuncDecl{f}})
	text = strings.Replace(text, "endfunction", "  wif0 = 1 + 2\nendfunction", 1)
	res, err := s.Apply(ctx, Edit{Op: OpReplaceFunc, Func: f.Name, Source: text}, vopt)
	if err != nil {
		t.Fatalf("replace-func: %v", err)
	}
	if !res.Verified {
		t.Fatal("replace-func: not verified")
	}

	for _, v := range []float64{40, 45} {
		res, err = s.Apply(ctx, Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: v}, vopt)
		if err != nil {
			t.Fatalf("set-param %v: %v", v, err)
		}
		if !res.Verified {
			t.Fatalf("set-param %v: not verified", v)
		}
		if res.BoundDelta == 0 {
			t.Fatalf("raising shared.access_cycles to %v did not move the bound", v)
		}
	}
	// A platform edit leaves the program untouched, so the pure program
	// passes (the transform prefix) can restore instead of re-running.
	// The replace-func made a program the process may not have analyzed
	// before: the second set-param is at least its third analysis, and
	// by then pass.Global has stored those passes on their second
	// sighting.
	if res.PassesSkipped == 0 {
		t.Fatalf("the second set-param re-ran everything (skipped=0, reran=%d); the pass cache is not effective", res.PassesReran)
	}

	res, err = s.Apply(ctx, Edit{Op: OpToggleTransform, Transform: "fission", Disable: true}, vopt)
	if err != nil {
		t.Fatalf("toggle-transform: %v", err)
	}
	if !res.Verified {
		t.Fatal("toggle-transform: not verified")
	}

	res, err = s.Apply(ctx, Edit{Op: OpSetPolicy, Policy: sched.ListOblivious}, vopt)
	if err != nil {
		t.Fatalf("set-policy: %v", err)
	}
	if !res.Verified {
		t.Fatal("set-policy: not verified")
	}

	coldCheck(t, s)
}

// editGen produces deterministic pseudo-random valid edits against a
// session's evolving state.
type editGen struct {
	rng *rand.Rand
	n   int
}

func (g *editGen) next(t testing.TB, s *Session) Edit {
	t.Helper()
	hasBus := s.Options().Platform.Bus != nil
	for {
		switch g.rng.Intn(7) {
		case 0: // replace-func: append a fresh-variable statement
			prog, err := scil.Parse(s.Source())
			if err != nil {
				t.Fatalf("session source stopped parsing: %v", err)
			}
			f := prog.Funcs[g.rng.Intn(len(prog.Funcs))]
			text := scil.Format(&scil.Program{Funcs: []*scil.FuncDecl{f}})
			g.n++
			stmt := fmt.Sprintf("  wif%d = %d + %d\nendfunction", g.n, 1+g.rng.Intn(9), 1+g.rng.Intn(9))
			text = strings.Replace(text, "endfunction", stmt, 1)
			return Edit{Op: OpReplaceFunc, Func: f.Name, Source: text}
		case 1:
			return Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: float64(5 + g.rng.Intn(56))}
		case 2:
			return Edit{Op: OpSetParam, Param: "core.op_cycles", Value: float64(1 + g.rng.Intn(6))}
		case 3:
			return Edit{Op: OpSetParam, Param: "dma.cycles_per_byte", Value: 0.5 + 3*g.rng.Float64()}
		case 4:
			names := transform.PassNames()
			return Edit{Op: OpToggleTransform, Transform: names[g.rng.Intn(len(names))], Disable: g.rng.Intn(2) == 0}
		case 5:
			pol := sched.ListContentionAware
			if g.rng.Intn(2) == 0 {
				pol = sched.ListOblivious
			}
			return Edit{Op: OpSetPolicy, Policy: pol}
		case 6:
			if !hasBus {
				continue
			}
			return Edit{Op: OpSetParam, Param: "bus.slot_cycles", Value: float64(4 + g.rng.Intn(37))}
		}
	}
}

// TestRandomizedEditSequences drives sessions through random edit
// sequences on several use-case × platform cells, verifying the
// differential contract at every step and independently at the end.
func TestRandomizedEditSequences(t *testing.T) {
	cells := []struct{ uc, plat string }{
		{"polka", "xentium4"},
		{"egpws", "xentium4-tdm"},
		{"weaa", "leon3-2x2"},
	}
	edits := 8
	if testing.Short() {
		cells = cells[:1]
		edits = 4
	}
	for i, cell := range cells {
		cell := cell
		seed := int64(100 + i)
		t.Run(cell.uc+"/"+cell.plat, func(t *testing.T) {
			s := newTestSession(t, cell.uc, cell.plat)
			g := &editGen{rng: rand.New(rand.NewSource(seed))}
			for k := 0; k < edits; k++ {
				e := g.next(t, s)
				before := s.Fingerprint()
				res, err := s.Apply(context.Background(), e, ApplyOptions{Verify: true})
				if err != nil {
					// A rejected edit must leave the session untouched.
					if got := s.Fingerprint(); got != before {
						t.Fatalf("failed edit %s changed the session: %s -> %s", e, before[:16], got[:16])
					}
					t.Logf("edit %d (%s) rejected (session unchanged): %v", k, e, err)
					continue
				}
				if !res.Verified {
					t.Fatalf("edit %d (%s): verify did not run", k, e)
				}
			}
			coldCheck(t, s)
		})
	}
}

// TestEditErrorsLeaveSessionUntouched exercises the rejection paths of
// every op: malformed edits fail fast and commit nothing.
func TestEditErrorsLeaveSessionUntouched(t *testing.T) {
	s := newTestSession(t, "polka", "xentium4")
	fp := s.Fingerprint()
	_, _, _, edits := s.Snapshot()
	ctx := context.Background()

	bad := []Edit{
		{Op: "frobnicate"},
		{Op: OpReplaceFunc}, // no source
		{Op: OpReplaceFunc, Func: "nope", Source: "function y = f(x)\n  y = x\nendfunction"}, // name mismatch
		{Op: OpReplaceFunc, Source: "function y = no_such_func(x)\n  y = x\nendfunction"},    // not in program
		{Op: OpReplaceFunc, Source: "not scil at all ("},
		{Op: OpSetParam}, // no param
		{Op: OpSetParam, Param: "nope.nope", Value: 1},              // unknown path
		{Op: OpSetParam, Param: "shared.access_cycles", Value: 1.5}, // fractional int
		{Op: OpSetParam, Param: "shared.access_cycles", Value: -4},  // invalid platform
		{Op: OpSetParam, Param: "noc.link_cycles", Value: 2},        // xentium4 has no NoC
		{Op: OpToggleTransform, Transform: "no-such-pass"},
		{Op: OpSetPolicy, Policy: sched.Policy(99)},
		{Op: OpSetFaults, Faults: fault.Spec{AccessJitter: -1}},
	}
	for _, e := range bad {
		if _, err := s.Apply(ctx, e, ApplyOptions{}); err == nil {
			t.Errorf("edit %s: expected error", e)
		}
	}
	if got := s.Fingerprint(); got != fp {
		t.Fatalf("rejected edits changed the session: %s -> %s", fp[:16], got[:16])
	}
	if _, _, _, after := s.Snapshot(); after != edits {
		t.Fatalf("rejected edits bumped the edit count: %d -> %d", edits, after)
	}
}

// TestSetFaultsSkipsReanalysis checks that a fault-spec edit commits
// without recompiling and only affects subsequent simulations.
func TestSetFaultsSkipsReanalysis(t *testing.T) {
	s := newTestSession(t, "polka", "xentium4")
	fp := s.Fingerprint()
	spec := fault.Spec{Seed: 7, AccessJitter: 0.5}
	res, err := s.Apply(context.Background(), Edit{Op: OpSetFaults, Faults: spec}, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != fp {
		t.Fatal("set-faults changed the analysis fingerprint")
	}
	if res.PassesReran != 0 || res.PassesSkipped != 0 {
		t.Fatalf("set-faults ran passes: skipped=%d reran=%d", res.PassesSkipped, res.PassesReran)
	}
	if _, _, got, _ := s.Snapshot(); got != spec {
		t.Fatalf("fault spec not committed: %+v", got)
	}

	uc := usecases.ByName("polka")
	rep, art, err := s.Simulate(context.Background(), uc.Inputs(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if art == nil || rep == nil {
		t.Fatal("simulate returned nothing")
	}
	if rep.Faults.AccessFaults == 0 {
		t.Fatal("fault spec enabled but simulation injected nothing")
	}
	if rep.Makespan > art.Bound() {
		t.Fatalf("in-budget injection broke the bound: measured %d > bound %d", rep.Makespan, art.Bound())
	}
}

// TestManagerEvictionAndTTL covers the LRU bound, idle expiry (both
// lazy Get expiry and Sweep), and the closed-session error.
func TestManagerEvictionAndTTL(t *testing.T) {
	uc, opt := testOptions(t, "polka", "xentium4")
	m := NewManager(2, 80*time.Millisecond)
	// A fake clock: the TTL elapses when the test says so, however long
	// the creates take.
	clock := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	m.now = func() time.Time { return clock }
	ctx := context.Background()

	_, evictedBefore, expiredBefore, _ := Counters()

	var ids []string
	var first *Session
	for i := 0; i < 3; i++ {
		s, _, err := m.Create(ctx, uc.Source, opt, fault.Spec{}, ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = s
		}
		ids = append(ids, s.ID)
	}
	if m.Len() != 2 {
		t.Fatalf("manager holds %d sessions, want 2", m.Len())
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("LRU session survived eviction")
	}
	if _, evicted, _, _ := Counters(); evicted != evictedBefore+1 {
		t.Fatalf("eviction counter moved %d, want 1", evicted-evictedBefore)
	}
	// The evicted session is closed: edits fail, in-flight reads are fine.
	if _, err := first.Apply(ctx, Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: 30}, ApplyOptions{}); err == nil {
		t.Fatal("edit on evicted session succeeded")
	}

	// Idle past the TTL: Get expires lazily.
	clock = clock.Add(100 * time.Millisecond)
	if _, ok := m.Get(ids[1]); ok {
		t.Fatal("idle session survived its TTL")
	}
	// And Sweep expires the rest.
	if n := m.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d sessions, want 1", n)
	}
	if m.Len() != 0 {
		t.Fatalf("manager holds %d sessions after sweep, want 0", m.Len())
	}
	if _, _, expired, _ := Counters(); expired != expiredBefore+2 {
		t.Fatalf("expiry counter moved %d, want 2", expired-expiredBefore)
	}
	if _, err := m.Apply(ctx, ids[2], Edit{Op: OpSetPolicy, Policy: sched.ListOblivious}, ApplyOptions{}); err != ErrNotFound {
		t.Fatalf("Apply on expired session: got %v, want ErrNotFound", err)
	}
}

// TestConcurrentSessionsMatchSerialReplay runs N goroutines editing
// distinct sessions concurrently (under -race this is also the data-race
// check) and asserts every final state is bit-identical to a serial
// replay of the same edit script on a fresh session.
func TestConcurrentSessionsMatchSerialReplay(t *testing.T) {
	const n = 4
	edits := 5
	if testing.Short() {
		edits = 3
	}
	uc, opt := testOptions(t, "polka", "xentium4")
	m := NewManager(n, time.Minute)
	ctx := context.Background()

	run := func(s *Session, seed int64) (string, error) {
		g := &editGen{rng: rand.New(rand.NewSource(seed))}
		for k := 0; k < edits; k++ {
			e := g.next(t, s)
			if _, err := s.Apply(ctx, e, ApplyOptions{}); err != nil {
				// Rejected edits are deterministic too: the serial replay
				// sees the identical rejection, so just continue.
				continue
			}
		}
		return s.Fingerprint(), nil
	}

	// Concurrent pass.
	concurrent := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		s, _, err := m.Create(ctx, uc.Source, opt, fault.Spec{}, ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			fp, err := run(s, int64(i))
			if err != nil {
				errs <- err
				return
			}
			concurrent[i] = fp
		}(i, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serial replay.
	for i := 0; i < n; i++ {
		s, _, err := New(ctx, uc.Source, opt, fault.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := run(s, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if fp != concurrent[i] {
			t.Fatalf("session %d: concurrent fingerprint %s != serial replay %s", i, concurrent[i][:16], fp[:16])
		}
	}
}

// TestSessionSoak is the make-check smoke of the whole subsystem: a
// small manager under edit churn across eviction and reuse, with the
// differential verifier sampled along the way.
func TestSessionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	uc, opt := testOptions(t, "polka", "xentium4")
	m := NewManager(3, time.Minute)
	ctx := context.Background()
	g := &editGen{rng: rand.New(rand.NewSource(42))}

	var ids []string
	for i := 0; i < 5; i++ {
		s, _, err := m.Create(ctx, uc.Source, opt, fault.Spec{}, ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	applied, rejected, gone, skipped := 0, 0, 0, 0
	for k := 0; k < 40; k++ {
		id := ids[g.rng.Intn(len(ids))]
		s, ok := m.Get(id)
		if !ok {
			gone++ // evicted by a later creation; expected
			continue
		}
		e := g.next(t, s)
		aopt := ApplyOptions{Verify: k%10 == 0}
		res, err := m.Apply(ctx, id, e, aopt)
		if err != nil {
			if err == ErrNotFound {
				gone++
				continue
			}
			rejected++
			continue
		}
		applied++
		skipped += res.PassesSkipped
	}
	if applied == 0 {
		t.Fatal("soak applied no edits")
	}
	t.Logf("soak: %d applied (%d passes skipped), %d rejected, %d on dead sessions; live sessions:",
		applied, skipped, rejected, gone)
	for _, in := range m.List() {
		s, ok := m.Get(in.ID)
		if !ok {
			continue
		}
		coldCheck(t, s)
		t.Logf("  %s: %d edits", in.ID, in.Edits)
	}
	// Five sessions of one configuration share pass.Global, so their
	// edits restore at least the passes an edit leaves clean.
	if skipped == 0 {
		t.Error("the soak's edits skipped no pass: sessions do not share the pass cache")
	}
}

// TestSessionsShareGlobalPassCache pins how sessions use pass.Global:
// under its one admission rule, exactly like compiles. A configuration's
// first sighting, by a compile, stores nothing; a session of it stores
// every pass and a second session restores them all. An edit only one
// session has made stores nothing; the same edit in a second session
// stores, and a third session restores every pass of it.
func TestSessionsShareGlobalPassCache(t *testing.T) {
	uc, opt := testOptions(t, "polka", "xentium4")
	ctx := context.Background()
	allRestored := func(what string, art *core.Artifacts) {
		t.Helper()
		for _, ag := range art.PassTrace.Aggregate() {
			if ag.CacheMisses != 0 {
				t.Errorf("%s re-ran pass %q instead of restoring it from Global", what, ag.Pass)
			}
		}
	}
	pass.Global.Reset()
	prog, err := scil.Parse(uc.Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Compile(prog, opt); err != nil {
		t.Fatal(err)
	}
	if n := pass.Global.Len(); n != 0 {
		t.Fatalf("a first compile stored %d snapshots in Global", n)
	}

	s1, res1, err := New(ctx, uc.Source, opt, fault.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	global := pass.Global.Len()
	if global == 0 {
		t.Fatal("a session stored nothing in Global for keys a compile had sighted")
	}
	s2, res2, err := New(ctx, uc.Source, opt, fault.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	allRestored("the second session's create", res2.Artifacts)
	if res2.Fingerprint != res1.Fingerprint {
		t.Fatal("the restored session diverged from the first")
	}

	edit := Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: 30}
	if _, err := s1.Apply(ctx, edit, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := pass.Global.Len(); n != global {
		t.Fatalf("an edit only one session made changed Global: %d -> %d snapshots", global, n)
	}
	if _, err := s2.Apply(ctx, edit, ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := pass.Global.Len(); n <= global {
		t.Fatalf("the same edit in a second session stored nothing: Global holds %d snapshots, had %d", n, global)
	}

	s3, res3, err := New(ctx, uc.Source, opt, fault.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	allRestored("the third session's create", res3.Artifacts)
	res, err := s3.Apply(ctx, edit, ApplyOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	allRestored("the third session's edit", res.Artifacts)
	if !res.Verified {
		t.Fatal("the shared edit was not verified")
	}
}

// TestListDoesNotWaitForEdits: a listing reads each session's committed
// edit count without the session's lock, so an edit in flight stalls
// neither List nor a Get of another session behind the manager's lock.
func TestListDoesNotWaitForEdits(t *testing.T) {
	uc, opt := testOptions(t, "polka", "xentium4")
	m := NewManager(4, time.Minute)
	ctx := context.Background()
	a, _, err := m.Create(ctx, uc.Source, opt, fault.Spec{}, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Create(ctx, uc.Source, opt, fault.Spec{}, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The edit pauses in its first pass event, holding a's lock, until
	// the test releases it (also on failure, so no goroutine leaks).
	paused, release := make(chan struct{}), make(chan struct{})
	releaseEdit := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseEdit)
	var pause sync.Once
	edited := make(chan error, 1)
	go func() {
		_, err := m.Apply(ctx, a.ID, Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: 33}, ApplyOptions{
			OnTiming: func(pass.Timing) { pause.Do(func() { close(paused); <-release }) },
		})
		edited <- err
	}()
	deadline := time.After(5 * time.Second)
	select {
	case <-paused:
	case err := <-edited:
		t.Fatalf("the edit finished without a pass event: %v", err)
	case <-deadline:
		t.Fatal("the edit never reported a pass")
	}

	listed := make(chan []Info, 1)
	go func() { listed <- m.List() }()
	got := make(chan bool, 1)
	go func() { _, ok := m.Get(b.ID); got <- ok }()
	for pending := 2; pending > 0; pending-- {
		select {
		case infos := <-listed:
			for _, in := range infos {
				if in.ID == a.ID && in.Edits != 0 {
					t.Errorf("List during the edit reported %d edits of the session, want the pre-edit 0", in.Edits)
				}
			}
		case ok := <-got:
			if !ok {
				t.Error("Get of another session during the edit found nothing")
			}
		case <-deadline:
			t.Fatal("List or a Get of another session waited for an edit in flight")
		}
	}

	releaseEdit()
	if err := <-edited; err != nil {
		t.Fatal(err)
	}
	for _, in := range m.List() {
		if in.ID == a.ID && in.Edits != 1 {
			t.Fatalf("List after the edit reported %d edits, want 1", in.Edits)
		}
	}
}

// TestDiffTasks pins the dirty-task diff semantics.
func TestDiffTasks(t *testing.T) {
	s := newTestSession(t, "polka", "xentium4")
	res, err := s.Apply(context.Background(), Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: 55}, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChangedTasks) == 0 {
		t.Fatal("raising the shared access latency moved no task")
	}
	// A no-op edit (setting the parameter to its current value) changes
	// nothing: same fingerprint, no changed tasks, zero delta.
	res2, err := s.Apply(context.Background(), Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: 55}, ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fingerprint != res.Fingerprint {
		t.Fatal("no-op edit changed the fingerprint")
	}
	if len(res2.ChangedTasks) != 0 || res2.BoundDelta != 0 {
		t.Fatalf("no-op edit reported changes: tasks=%v delta=%d", res2.ChangedTasks, res2.BoundDelta)
	}
}

// TestResultMemoRevisit exercises the session result memo: revisiting
// an already analyzed configuration restores the finished artifacts
// whole (every pass skipped, fingerprints identical), while the memo
// bound keeps long-evicted configurations honest (they re-analyze).
func TestResultMemoRevisit(t *testing.T) {
	s := newTestSession(t, "polka", "xentium4")
	ctx := context.Background()
	edit := func(v float64) *EditResult {
		res, err := s.Apply(ctx, Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: v}, ApplyOptions{Verify: true})
		if err != nil {
			t.Fatalf("set-param %v: %v", v, err)
		}
		return res
	}
	first := edit(20)
	if first.PassesReran == 0 {
		t.Fatal("fresh configuration ran no passes")
	}
	edit(40)
	back := edit(20)
	if back.PassesReran != 0 {
		t.Fatalf("revisit re-ran %d passes, want 0 (memo restore)", back.PassesReran)
	}
	if back.PassesSkipped == 0 {
		t.Fatal("revisit reports no skipped passes")
	}
	if back.Fingerprint != first.Fingerprint {
		t.Fatalf("revisit fingerprint %s != original %s", back.Fingerprint[:16], first.Fingerprint[:16])
	}
	if !back.Verified {
		t.Fatal("revisit skipped the differential verify")
	}
	if len(back.ChangedTasks) == 0 {
		t.Fatal("40 -> 20 moved no task windows")
	}

	// Streaming observers still get one event per pass on a memo hit.
	events := 0
	res, err := s.Apply(ctx, Edit{Op: OpSetParam, Param: "shared.access_cycles", Value: 40},
		ApplyOptions{OnTiming: func(pass.Timing) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	if events != res.PassesSkipped+res.PassesReran {
		t.Fatalf("memo hit streamed %d events, result counts %d", events, res.PassesSkipped+res.PassesReran)
	}

	// Push the first configuration out of the bounded memo: it must
	// re-analyze (and still match differentially).
	for v := 0; v < sessionMemoEntries+2; v++ {
		edit(float64(50 + v))
	}
	if res := edit(20); res.PassesReran == 0 {
		t.Fatal("evicted configuration still restored from the memo")
	}
	coldCheck(t, s)
}
