// Golden differential tests for the bytecode VM vs the tree walker: both
// execution engines must produce bit-identical simulation reports — and
// both must match the recorded goldens — across every builtin platform ×
// use case × input seed, with and without fault injection. This is the
// acceptance gate that lets the VM own the hot path while the tree
// walker stays the oracle.
package sim_test

import (
	"fmt"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/fault"
	"argo/internal/sim"
	"argo/internal/usecases"
)

// Engine selectors for sim.RunEngine and sim.RunFaultyEngine.
const (
	onVM   = false
	onTree = true
)

// TestVMBitIdenticalToGolden: the VM engine and the tree engine must both
// reproduce the golden fingerprints for every builtin platform × use case
// × seed. Cross-engine identity over the full matrix plus identity to the
// pre-VM goldens pins results, task timings, bus waits and DMA phases
// bit-for-bit on both engines.
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
					vmRep, err := sim.RunEngine(art.Parallel, u.Inputs(seed), onVM)
					if err != nil {
						t.Fatal(err)
					}
					if got := fingerprint(vmRep); got != want {
						t.Errorf("vm engine drifted from golden\n key %s\n got  %s\n want %s", key, got, want)
					}
					treeRep, err := sim.RunEngine(art.Parallel, u.Inputs(seed), onTree)
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
			vmRep, err := sim.RunFaultyEngine(art.Parallel, u.Inputs(1), spec, onVM)
			if err != nil {
				t.Fatal(err)
			}
			treeRep, err := sim.RunFaultyEngine(art.Parallel, u.Inputs(1), spec, onTree)
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
	// Round 1 sights the input hashes (no entry stored), round 2 stores
	// full entries, rounds 3-4 hit.
	for round := 0; round < 4; round++ {
		for seed := int64(1); seed <= 3; seed++ {
			rep, err := sim.RunEngine(art.Parallel, u.Inputs(seed), onVM)
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
		rep, err := sim.RunEngine(art.Parallel, u.Inputs(seed), onTree)
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
	vmRep, err := sim.RunFaultyEngine(art.Parallel, u.Inputs(2), spec, onVM)
	if err != nil {
		t.Fatal(err)
	}
	treeRep, err := sim.RunFaultyEngine(art.Parallel, u.Inputs(2), spec, onTree)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fingerprint(vmRep), fingerprint(treeRep); a != b {
		t.Errorf("faulty memo-hit run differs from oracle\n vm   %s\n tree %s", a, b)
	}
}

// TestVariantMemoHashCollision forces two input sets onto one memo
// hash. The entry stored for the other inputs must never serve a run: a
// collision costs a miss, and the miss's own store then takes the slot
// over, so the run after it hits with its own entry.
func TestVariantMemoHashCollision(t *testing.T) {
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
	a, b := u.Inputs(1), u.Inputs(2)
	run := func() string {
		t.Helper()
		rep, err := sim.RunEngine(art.Parallel, a, onVM)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(rep)
	}
	want := run() // first sighting of a's hash: nothing stored
	if got := run(); got != want {
		t.Fatalf("second run of one input drifted\n got  %s\n want %s", got, want)
	}

	// An entry for b under a's hash, with traces and results no run
	// produces: if a lookup for a ever served it, a's report would change.
	bogus := make([][]sim.Segment, len(art.Parallel.Input.Tasks))
	for i := range bogus {
		bogus[i] = []sim.Segment{{Gap: 1}}
	}
	sim.StoreVariantUnder(art.Parallel, sim.VariantHash(a), b, bogus, [][]float64{{42}})

	h0, m0 := sim.TraceMemoCounters()
	if got := run(); got != want {
		t.Fatalf("a colliding entry served a run\n got  %s\n want %s", got, want)
	}
	h1, m1 := sim.TraceMemoCounters()
	if h1 != h0 || m1-m0 != 1 {
		t.Fatalf("collided lookup counted %d hits and %d misses, want 0 and 1", h1-h0, m1-m0)
	}
	if got := run(); got != want {
		t.Fatalf("run after the collision drifted\n got  %s\n want %s", got, want)
	}
	if h2, _ := sim.TraceMemoCounters(); h2-h1 != 1 {
		t.Fatalf("the miss did not restore a's own entry: %d hits on the next run, want 1", h2-h1)
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
	c0, h0, m0 := sim.VMCounters()
	for i := 0; i < 3; i++ {
		if _, err := sim.RunEngine(art.Parallel, u.Inputs(1), onVM); err != nil {
			t.Fatal(err)
		}
	}
	c1, h1, m1 := sim.VMCounters()
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
