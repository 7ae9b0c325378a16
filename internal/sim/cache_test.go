package sim

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"argo/internal/adl"
	"argo/internal/ir"
	"argo/internal/ir/vm"
	"argo/internal/sched"
)

// TestSharedCacheBound pins the shared code cache's bound (argod's
// -vm-cache-max): stores beyond the cap evict rather than grow, the
// most recent store survives, and a non-positive bound restores the
// default.
func TestSharedCacheBound(t *testing.T) {
	vmShared.Reset()
	SetVMCacheMax(16)
	t.Cleanup(func() {
		SetVMCacheMax(0)
		vmShared.Reset()
	})
	ev0 := vmShared.Stats().Evictions
	store := func(n int) (last [sha256.Size]byte) {
		for i := 0; i < n; i++ {
			last = [sha256.Size]byte{byte(i), byte(i >> 8)}
			vmShared.Put(last, new(vm.Program))
		}
		return last
	}
	last := store(64)
	if n := vmShared.Len(); n != 16 {
		t.Errorf("shared cache holds %d entries, bound is 16", n)
	}
	if ev := vmShared.Stats().Evictions - ev0; ev != 48 {
		t.Errorf("%d evictions, want 48", ev)
	}
	if _, ok := vmShared.Get(last); !ok {
		t.Error("most recent store missing from shared cache")
	}
	SetVMCacheMax(0)
	store(2 * vmSharedMax)
	if n := vmShared.Len(); n != vmSharedMax {
		t.Errorf("after SetVMCacheMax(0) the cache holds %d entries, want the default %d", n, vmSharedMax)
	}
}

// TestTraceCacheWarmRunsIdentical runs the same inputs through a warm
// program (trace cache populated by earlier seeds) and through per-seed
// fresh programs (every run meters cold), and requires bit-identical
// reports: the cache must be invisible in every observable output.
func TestTraceCacheWarmRunsIdentical(t *testing.T) {
	platform := adl.XentiumPlatform(3)
	spec := ir.ArgSpec{Rows: 8, Cols: 8}
	warm := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
	for seed := int64(0); seed < 5; seed++ {
		args := [][]float64{randImg(64, seed)}
		wantProg := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
		want, err := Run(wantProg, args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(warm, args)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: warm-cache report differs from cold report:\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}

// TestTraceCacheInvariance checks the gate itself: the straight-line
// pipeline caches every task, while the branchy kernel (data-dependent
// if) caches none — and cached traces equal freshly metered ones.
func TestTraceCacheInvariance(t *testing.T) {
	platform := adl.XentiumPlatform(3)
	spec := ir.ArgSpec{Rows: 8, Cols: 8}

	p := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
	c := cacheFor(p)
	for tid, inv := range c.invariant {
		if !inv {
			t.Errorf("pipeline task %d: want invariant trace", tid)
		}
	}

	b := buildPipeline(t, branchySrc, platform, sched.ListOblivious, false, spec)
	cb := cacheFor(b)
	anyVariant := false
	for _, inv := range cb.invariant {
		if !inv {
			anyVariant = true
		}
	}
	if !anyVariant {
		t.Error("branchy program: want at least one variant task")
	}

	// Populate the cache, then independently re-meter every invariant
	// task and compare segment for segment.
	if _, err := Run(p, [][]float64{randImg(64, 1)}); err != nil {
		t.Fatal(err)
	}
	fresh, _, err := MeterTasks(p, [][]float64{randImg(64, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for tid, tr := range fresh {
		if cached := c.traces[tid]; cached != nil && !reflect.DeepEqual(cached, tr) {
			t.Errorf("task %d: cached trace differs from fresh metering\n cached: %v\n  fresh: %v", tid, cached, tr)
		}
	}

	// Counter sanity: a second warm run of the pipeline only hits.
	h0, m0 := TraceCacheCounters()
	if _, err := Run(p, [][]float64{randImg(64, 3)}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := TraceCacheCounters()
	if h1 <= h0 {
		t.Errorf("warm run recorded no trace cache hits (%d -> %d)", h0, h1)
	}
	if m1 != m0 {
		t.Errorf("warm run of fully-invariant program recorded misses (%d -> %d)", m0, m1)
	}
}
