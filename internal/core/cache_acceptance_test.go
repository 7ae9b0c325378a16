// Acceptance tests for the remap-on-restore snapshot codec: a second
// fresh compilation of an identical configuration must restore the
// whole structural ladder (build-htg, annotate, par-build) from the
// process-wide pass cache — zero re-executions — and still be
// bit-identical to a cache-disabled compilation. The tests
// live in package core_test because the bit-identity oracle is
// session.ResultFingerprint, and internal/session imports core.
package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/ir"
	"argo/internal/pass"
	"argo/internal/sched"
	"argo/internal/scil"
	"argo/internal/session"
	"argo/internal/usecases"
)

// structuralPasses are the three passes the snapshot codec made
// cacheable (they publish artifacts holding IR pointers, frozen by
// registration/traversal index).
var structuralPasses = []string{"build-htg", "annotate", "par-build"}

func structuralRuns() map[string]int64 {
	out := make(map[string]int64, len(structuralPasses))
	for _, name := range structuralPasses {
		out[name] = pass.Runs(name)
	}
	return out
}

// TestFreshCompileServedFromGlobalCache pins the process-wide pass
// cache's contract: pass.Global stores a snapshot on its key's second
// sighting. After a Reset, a configuration's first compile stores
// nothing and its second compile runs every pass and stores. A third
// fresh core.Compile of the identical configuration (a distinct
// pass.Context, as a new argod request or session would present)
// re-runs none of the structural passes, grows argo_pass_cache_hits,
// and produces a result fingerprint bit-identical to a compilation with
// caching disabled.
func TestFreshCompileServedFromGlobalCache(t *testing.T) {
	uc := usecases.ByName("egpws")
	src, err := uc.Program()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(uc.Entry, uc.Args, adl.XentiumPlatform(4))
	compile := func() *core.Artifacts {
		t.Helper()
		art, err := core.Compile(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}

	pass.Global.Reset()
	first := compile()
	if n := pass.Global.Len(); n != 0 {
		t.Fatalf("the first compile stored %d snapshots; a first sighting stores none", n)
	}
	second := compile()
	if n := pass.Global.Len(); n == 0 {
		t.Fatal("the second compile stored nothing")
	}
	for _, ag := range second.PassTrace.Aggregate() {
		if ag.CacheHits != 0 {
			t.Errorf("pass %q restored %d times on the second compile; the first stored nothing to restore", ag.Pass, ag.CacheHits)
		}
	}

	runsBefore := structuralRuns()
	hits0, _ := pass.CacheCounters()
	third := compile()
	hits1, _ := pass.CacheCounters()
	if hits1 <= hits0 {
		t.Fatalf("argo_pass_cache_hits did not grow across the third compile (%d -> %d)", hits0, hits1)
	}
	for _, name := range structuralPasses {
		if delta := pass.Runs(name) - runsBefore[name]; delta != 0 {
			t.Errorf("structural pass %q re-ran %d times on the third compile; want 0 (argo_pass_runs)", name, delta)
		}
	}
	want := session.ResultFingerprint(first)
	for i, art := range []*core.Artifacts{second, third} {
		if got := session.ResultFingerprint(art); got != want {
			t.Fatalf("compile %d diverged from the first:\nfirst %s\ngot   %s", i+2, want, got)
		}
	}

	plain := opt
	plain.Passes.NoCache = true
	uncached, err := core.Compile(src, plain)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := session.ResultFingerprint(third), session.ResultFingerprint(uncached); a != b {
		t.Fatalf("cached compile diverged from NoCache run:\ncached   %s\nuncached %s", a, b)
	}
}

// TestFirstCompileStoresNothing: no pass key recurs within one compile,
// so after a Reset the first compile of every use case on every
// built-in platform leaves pass.Global empty — a model compiled once
// costs the cache no snapshot.
func TestFirstCompileStoresNothing(t *testing.T) {
	for _, uc := range usecases.All() {
		src, err := uc.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range adl.BuiltinNames() {
			pass.Global.Reset()
			if _, err := core.Compile(src, core.DefaultOptions(uc.Entry, uc.Args, adl.Builtin(name))); err != nil {
				t.Fatalf("%s on %s: %v", uc.Name, name, err)
			}
			if n := pass.Global.Len(); n != 0 {
				t.Errorf("%s on %s: the first compile stored %d snapshots, want 0", uc.Name, name, n)
			}
		}
	}
}

// TestWarmCompileIRIsPrivate: the lazy IR thaw hands a warm compile a
// clone of the cached program, never the program itself. Vandalizing the
// IR a fully warm compile returned (the third on one cache: the first
// sights every key, the second stores) — every variable's storage class
// and one loop statement — changes neither the next fully warm
// compile's result fingerprint nor its agreement with a NoCache compile.
func TestWarmCompileIRIsPrivate(t *testing.T) {
	uc := usecases.ByName("egpws")
	src, err := uc.Program()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(uc.Entry, uc.Args, adl.XentiumPlatform(4))
	opt.Passes.Cache = pass.NewCache(0)
	warmCompile := func(what string) *core.Artifacts {
		t.Helper()
		art, err := core.Compile(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, ag := range art.PassTrace.Aggregate() {
			if ag.CacheMisses != 0 {
				t.Errorf("%s: pass %q missed the cache", what, ag.Pass)
			}
		}
		return art
	}
	for range 2 {
		if _, err := core.Compile(src, opt); err != nil {
			t.Fatal(err)
		}
	}
	first := warmCompile("the first warm compile")
	want := session.ResultFingerprint(first)

	for _, v := range first.IR.Vars {
		v.Storage = (v.Storage + 1) % 3
	}
	loops := 0
	ir.WalkStmts(first.IR.Entry.Body, func(s ir.Stmt) bool {
		if f, ok := s.(*ir.For); ok {
			f.Trip++
			f.Body = f.Body[:0]
			loops++
			return false
		}
		return true
	})
	if loops == 0 {
		t.Fatal("found no loop statement to vandalize")
	}

	second := warmCompile("the warm compile after the vandalism")
	if second.IR == first.IR {
		t.Fatal("two warm compiles returned the same program")
	}
	if got := session.ResultFingerprint(second); got != want {
		t.Fatalf("warm compile after vandalizing the previous result: fingerprint %s, want %s", got, want)
	}
	plain := opt
	plain.Passes.NoCache = true
	uncached, err := core.Compile(src, plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := session.ResultFingerprint(uncached); got != want {
		t.Fatalf("NoCache compile %s, warm compiles %s", got, want)
	}
}

// TestWarmCompileAcrossPlatformsKeysDistinctly guards the fingerprint
// keys: a different platform must not be served another platform's
// structural artifacts.
func TestWarmCompileAcrossPlatformsKeysDistinctly(t *testing.T) {
	uc := usecases.ByName("polka")
	src, err := uc.Program()
	if err != nil {
		t.Fatal(err)
	}
	pass.Global.Reset()
	a, err := core.Compile(src, core.DefaultOptions(uc.Entry, uc.Args, adl.XentiumPlatform(2)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Compile(src, core.DefaultOptions(uc.Entry, uc.Args, adl.XentiumPlatform(4)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule.Cores == b.Schedule.Cores {
		t.Fatalf("2-core and 4-core compiles agree on %d cores — cache key ignores the platform", a.Schedule.Cores)
	}
}

// TestPassCacheEvictionDeterministic pins the pass cache's eviction
// policy as deterministic: one compile sequence that overflows a fresh
// bounded cache (three use cases on 2/4/8/16 Xentium cores, three
// rounds, through 96 entries) hits and misses exactly alike when it is
// run twice.
func TestPassCacheEvictionDeterministic(t *testing.T) {
	sweep := func() (hits, misses int) {
		cache := pass.NewCache(96)
		for round := 0; round < 3; round++ {
			for _, name := range []string{"egpws", "polka", "weaa"} {
				uc := usecases.ByName(name)
				src, err := uc.Program()
				if err != nil {
					t.Fatal(err)
				}
				for _, cores := range []int{2, 4, 8, 16} {
					opt := core.DefaultOptions(uc.Entry, uc.Args, adl.XentiumPlatform(cores))
					opt.Passes.Cache = cache
					art, err := core.Compile(src, opt)
					if err != nil {
						t.Fatalf("%s on %d cores: %v", name, cores, err)
					}
					for _, tm := range art.PassTrace.Passes {
						switch tm.Cache {
						case pass.CacheHit:
							hits++
						case pass.CacheMiss:
							misses++
						}
					}
				}
			}
		}
		if ev := cache.Stats().Evictions; ev == 0 {
			t.Fatal("the sweep never filled the cache; it checks nothing about eviction")
		}
		return hits, misses
	}
	h1, m1 := sweep()
	h2, m2 := sweep()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("one compile sequence, two outcomes: %d hits / %d misses, then %d / %d", h1, m1, h2, m2)
	}
}

// FuzzSnapshotRemap hunts codec bugs: for arbitrary (use case, source
// tweak, platform width, policy) configurations, freezing the compiled
// task graph and parallel program and thawing them back against the
// same program must reproduce them bit-identically — the graph via
// reflect.DeepEqual (Uses/Ranges travel through the positional codec,
// so this also checks their encoding), the schedule pipeline via a
// fresh sched run on the thawed graph, and the parallel program via
// session.ResultFingerprint.
func FuzzSnapshotRemap(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(3))
	f.Add(uint8(2), uint8(7), uint8(0), uint8(9))
	f.Add(uint8(3), uint8(3), uint8(1), uint8(0xff))

	all := usecases.All()
	f.Fuzz(func(t *testing.T, ucSel, cores, polSel, tweak uint8) {
		uc := all[int(ucSel)%len(all)]
		src, err := uc.Program()
		if err != nil {
			t.Skip()
		}
		if tweak != 0 {
			// Vary the source so the codec sees graphs beyond the stock
			// corpus: append a scalar statement to one function.
			text := scil.Format(src)
			stmt := fmt.Sprintf("  fz = %d + 2\nendfunction", int(tweak)%17)
			if src, err = scil.Parse(strings.Replace(text, "endfunction", stmt, 1)); err != nil {
				t.Skip()
			}
			if errs := scil.Check(src, scil.CheckWCET); len(errs) > 0 {
				t.Skip()
			}
		}
		opt := core.DefaultOptions(uc.Entry, uc.Args, adl.XentiumPlatform(int(cores)%7+2))
		if polSel%2 == 1 {
			opt.Policy = sched.ListOblivious
		}
		art, err := core.Compile(src, opt)
		if err != nil {
			t.Skip()
		}

		idx := ir.NewSnapshotIndex(art.IR)
		tab := ir.NewSnapshotTable(art.IR)

		frozen, ok := art.Graph.Freeze(idx)
		if !ok {
			t.Fatal("compiled graph not freezable against its own program")
		}
		thawed := frozen.Thaw(tab)
		if !reflect.DeepEqual(art.Graph, thawed) {
			t.Fatalf("graph freeze/thaw round trip diverged:\n%+v\nvs\n%+v", art.Graph, thawed)
		}
		in1 := sched.FromHTG(art.Graph, opt.Platform)
		in2 := sched.FromHTG(thawed, opt.Platform)
		if !reflect.DeepEqual(in1, in2) {
			t.Fatal("sched inputs diverged after graph thaw")
		}
		sc1, err1 := sched.Run(in1, opt.Policy)
		sc2, err2 := sched.Run(in2, opt.Policy)
		if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(sc1, sc2)) {
			t.Fatalf("schedules diverged after graph thaw: %v vs %v", err1, err2)
		}

		snap, ok := art.Parallel.Freeze(idx)
		if !ok {
			t.Fatal("compiled parallel program not freezable against its own program")
		}
		p2 := snap.Thaw(tab, art.Options.Platform, art.Parallel.IR,
			art.Parallel.Graph, art.Parallel.Input, art.Parallel.Schedule, art.Parallel.System)
		if err := p2.Validate(); err != nil {
			t.Fatalf("thawed parallel program invalid: %v", err)
		}
		art2 := *art
		art2.Parallel = p2
		if a, b := session.ResultFingerprint(art), session.ResultFingerprint(&art2); a != b {
			t.Fatalf("parallel program freeze/thaw changed the result fingerprint:\n%s\nvs\n%s", a, b)
		}
	})
}
