// Golden differential tests for the bytecode VM vs the tree walker: both
// execution engines must produce bit-identical simulation reports — and
// both must match the recorded goldens — across every builtin platform ×
// use case × input seed, with and without fault injection. This is the
// acceptance gate that lets the VM own the hot path while the tree
// walker stays the oracle (the SolveMIPReference pattern).
package sim_test

import (
	"context"
	"fmt"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/sim"
	"argo/internal/usecases"
)

func TestInterpParse(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Interp
		err  bool
	}{
		{"vm", sim.InterpVM, false},
		{"tree", sim.InterpTree, false},
		{"auto", sim.InterpAuto, false},
		{"", sim.InterpAuto, false},
		{"jit", sim.InterpAuto, true},
	}
	for _, c := range cases {
		got, err := sim.ParseInterp(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseInterp(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	if sim.DefaultInterp() != sim.InterpVM {
		t.Errorf("default interpreter = %v, want vm", sim.DefaultInterp())
	}
}

// TestVMBitIdenticalToGolden: the VM engine and the tree engine must both
// reproduce the golden fingerprints for every builtin platform × use case
// × seed. Cross-engine identity over the full matrix plus identity to the
// pre-VM goldens pins results, task timings, bus waits and DMA phases
// bit-for-bit under both -interp modes.
func TestVMBitIdenticalToGolden(t *testing.T) {
	golden := loadGolden(t)
	for _, pname := range adl.BuiltinNames() {
		platform := adl.Builtin(pname)
		for _, u := range usecases.All() {
			u := u
			t.Run(pname+"/"+u.Name, func(t *testing.T) {
				t.Parallel()
				p, err := u.Program()
				if err != nil {
					t.Fatal(err)
				}
				art, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, platform))
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 2; seed++ {
					key := fmt.Sprintf("%s %s seed=%d", pname, u.Name, seed)
					want, ok := golden[key]
					if !ok {
						t.Fatalf("no golden fingerprint for %q", key)
					}
					vmRep, err := sim.RunInterp(art.Parallel, u.Inputs(seed), sim.InterpVM)
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(vmRep); got != want {
						t.Errorf("vm engine drifted from golden\n key %s\n got  %s\n want %s", key, got, want)
					}
					treeRep, err := sim.RunInterp(art.Parallel, u.Inputs(seed), sim.InterpTree)
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(treeRep); got != want {
						t.Errorf("tree engine drifted from golden\n key %s\n got  %s\n want %s", key, got, want)
					}
					if len(sim.Violations(art.Parallel, vmRep)) != len(sim.Violations(art.Parallel, treeRep)) {
						t.Errorf("%s: violation count differs between engines", key)
					}
				}
			})
		}
	}
}

// TestVMFaultyBitIdenticalAcrossEngines: fault injection consumes the
// traces phase 0 produces, so an enabled spec is the sharpest cross-check
// that both engines meter identical segment structure — the injected
// pattern, stats, and the full report must match across engines.
func TestVMFaultyBitIdenticalAcrossEngines(t *testing.T) {
	spec := fault.Spec{Seed: 11, AccessJitter: 0.7, ExecInflation: 0.7, NoCStall: 0.4}
	for _, pname := range []string{"xentium4", "leon3-2x2"} {
		platform := adl.Builtin(pname)
		if platform == nil {
			t.Fatalf("missing builtin platform %s", pname)
		}
		for _, u := range usecases.All() {
			p, err := u.Program()
			if err != nil {
				t.Fatal(err)
			}
			art, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, platform))
			if err != nil {
				t.Fatal(err)
			}
			vmRep, err := sim.RunFaultyInterp(context.Background(), art.Parallel, u.Inputs(1), spec, sim.InterpVM)
			if err != nil {
				t.Fatal(err)
			}
			treeRep, err := sim.RunFaultyInterp(context.Background(), art.Parallel, u.Inputs(1), spec, sim.InterpTree)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fingerprint(vmRep), fingerprint(treeRep); a != b {
				t.Errorf("%s/%s: faulty run differs between engines\n vm   %s\n tree %s", pname, u.Name, a, b)
			}
			if vmRep.Faults != treeRep.Faults {
				t.Errorf("%s/%s: injected stats differ: vm=%+v tree=%+v", pname, u.Name, vmRep.Faults, treeRep.Faults)
			}
		}
	}
}

// TestVariantTraceMemo: repeat VM runs over a bounded input set must
// replay memoized variant-task traces (memo hits move) while staying
// bit-identical to the first metered run and to the tree oracle — with
// and without fault injection, which consumes the memoized traces.
func TestVariantTraceMemo(t *testing.T) {
	u := usecases.ByName("polka")
	if u == nil {
		t.Fatal("polka use case missing")
	}
	p, err := u.Program()
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, adl.Builtin("xentium4")))
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := sim.TraceMemoCounters()
	want := make(map[int64]string)
	// Round 1 records input hashes (admission filter), round 2 stores
	// full entries, rounds 3-4 hit.
	for round := 0; round < 4; round++ {
		for seed := int64(1); seed <= 3; seed++ {
			rep, err := sim.RunInterp(art.Parallel, u.Inputs(seed), sim.InterpVM)
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(rep)
			if round == 0 {
				want[seed] = got
			} else if got != want[seed] {
				t.Errorf("seed %d round %d: memoized run drifted\n got  %s\n want %s", seed, round, got, want[seed])
			}
		}
	}
	h1, m1 := sim.TraceMemoCounters()
	if h1-h0 < 6 {
		t.Errorf("memo hits moved by %d, want >= 6 (rounds 3-4 must hit)", h1-h0)
	}
	if m1-m0 < 6 {
		t.Errorf("memo misses moved by %d, want >= 6 (rounds 1-2 must miss)", m1-m0)
	}
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := sim.RunInterp(art.Parallel, u.Inputs(seed), sim.InterpTree)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(rep); got != want[seed] {
			t.Errorf("seed %d: tree oracle differs from memoized VM run\n vm   %s\n tree %s", seed, want[seed], got)
		}
	}
	// Fault injection inflates and jitters the traces phase 0 hands over;
	// a memo-hit input must produce the same injected run as the oracle.
	spec := fault.Spec{Seed: 7, AccessJitter: 0.5, ExecInflation: 0.5}
	vmRep, err := sim.RunFaultyInterp(context.Background(), art.Parallel, u.Inputs(2), spec, sim.InterpVM)
	if err != nil {
		t.Fatal(err)
	}
	treeRep, err := sim.RunFaultyInterp(context.Background(), art.Parallel, u.Inputs(2), spec, sim.InterpTree)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fingerprint(vmRep), fingerprint(treeRep); a != b {
		t.Errorf("faulty memo-hit run differs from oracle\n vm   %s\n tree %s", a, b)
	}
}

// TestVMCountersMove sanity-checks the expvar instrumentation: a VM run
// registers compile and cache activity.
func TestVMCountersMove(t *testing.T) {
	u := usecases.ByName("polka")
	if u == nil {
		t.Fatal("polka use case missing")
	}
	p, err := u.Program()
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(p, core.DefaultOptions(u.Entry, u.Args, adl.Builtin("xentium4")))
	if err != nil {
		t.Fatal(err)
	}
	// A shared-cache hit would legitimately skip the compile; empty the
	// shared code cache so this compilation is observable.
	sim.ResetVMShared()
	c0, h0, m0, _ := sim.VMCounters()
	for i := 0; i < 3; i++ {
		if _, err := sim.RunInterp(art.Parallel, u.Inputs(1), sim.InterpVM); err != nil {
			t.Fatal(err)
		}
	}
	c1, h1, m1, _ := sim.VMCounters()
	if c1 <= c0 {
		t.Errorf("vm compiles did not move: %d -> %d", c0, c1)
	}
	if h1 <= h0 {
		t.Errorf("vm cache hits did not move: %d -> %d", h0, h1)
	}
	if m1 <= m0 {
		t.Errorf("vm cache misses did not move: %d -> %d", m0, m1)
	}
}
