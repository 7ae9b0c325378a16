package memo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// keys lists the cache's keys from most to least recently used.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	c.Range(func(k K, _ V) bool { out = append(out, k); return true })
	return out
}

// TestLRUVictimOrder pins the exact eviction order: every insert into a
// full cache evicts the least recently used entry, where both Get and
// Put (and a Do hit) count as a use.
func TestLRUVictimOrder(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // recency: a c b
	if evicted := c.Put("d", 4); !evicted {
		t.Fatal("insert into a full cache evicted nothing")
	}
	if got, want := keys(c), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after evicting b: %v, want %v", got, want)
	}
	if _, out, _ := c.Do(context.Background(), "c", nil); out != Hit {
		t.Fatalf("Do on a cached key: %v, want hit", out)
	}
	c.Put("e", 5) // evicts a
	c.Put("f", 6) // evicts d
	if got, want := keys(c), []string{"f", "e", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recency %v, want %v", got, want)
	}
	for _, k := range []string{"a", "b", "d"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%s survived eviction", k)
		}
	}
	if st := c.Stats(); st.Evictions != 3 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 3 evictions and 3 entries", st)
	}
}

// TestBound checks that no sequence of inserts grows a cache past its
// bound, that a shrinking SetMax trims at once, and that max <= 0 is
// unbounded.
func TestBound(t *testing.T) {
	c := New[int, int](8)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
		if n := c.Len(); n > 8 {
			t.Fatalf("after %d inserts the cache holds %d entries, bound 8", i+1, n)
		}
	}
	if st := c.Stats(); st.Evictions != 92 {
		t.Fatalf("evictions %d, want 92", st.Evictions)
	}
	c.SetMax(3)
	if got, want := keys(c), []int{99, 98, 97}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after SetMax(3): %v, want the three most recent %v", got, want)
	}
	if st := c.Stats(); st.Evictions != 97 {
		t.Fatalf("SetMax trim counted %d evictions in total, want 97", st.Evictions)
	}

	u := New[int, int](0)
	for i := 0; i < 100; i++ {
		u.Put(i, i)
	}
	if n := u.Len(); n != 100 {
		t.Fatalf("unbounded cache holds %d of 100 entries", n)
	}
}

// TestOverwriteDoesNotEvict checks that storing over a cached key
// replaces the value in place, refreshes its recency and evicts nothing.
func TestOverwriteDoesNotEvict(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if evicted := c.Put("a", 10); evicted {
		t.Fatal("overwrite evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("overwrite lost the value: %v %v", v, ok)
	}
	if got, want := keys(c), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recency %v, want %v", got, want)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestResetKeepsCounters checks that Reset drops every entry but keeps
// the cumulative counters, and that the cache works normally afterwards.
func TestResetKeepsCounters(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3) // one eviction
	c.Get(3)    // one hit
	c.Get(1)    // one miss
	before := c.Stats()
	c.Reset()
	after := c.Stats()
	if after.Entries != 0 || len(keys(c)) != 0 {
		t.Fatalf("Reset left %d entries", after.Entries)
	}
	before.Entries = 0
	if after != before {
		t.Fatalf("Reset changed counters: %+v -> %+v", before, after)
	}
	c.Put(4, 4)
	c.Put(5, 5)
	c.Put(6, 6)
	if got, want := keys(c), []int{6, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset: %v, want %v", got, want)
	}
}

// TestRangeOrderAndStop checks Range's most-recent-first order, early
// stop, and that the callback may call back into the cache.
func TestRangeOrderAndStop(t *testing.T) {
	c := New[int, string](0)
	for i := 0; i < 5; i++ {
		c.Put(i, fmt.Sprint(i))
	}
	c.Get(2)
	if got, want := keys(c), []int{2, 4, 3, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Range order %v, want %v", got, want)
	}
	var seen []int
	c.Range(func(k int, v string) bool {
		if v != fmt.Sprint(k) {
			t.Errorf("Range paired %d with %q", k, v)
		}
		c.Get(k) // re-entry must not deadlock
		seen = append(seen, k)
		return len(seen) < 2
	})
	if want := []int{2, 4}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("Range visited %v before stopping, want %v", seen, want)
	}
}

func TestDoHitAndMiss(t *testing.T) {
	c := New[string, int](4)
	ctx := context.Background()
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }
	if v, out, err := c.Do(ctx, "k", fn); err != nil || v != 42 || out != Miss {
		t.Fatalf("first Do: %v %v %v", v, out, err)
	}
	if v, out, err := c.Do(ctx, "k", fn); err != nil || v != 42 || out != Hit {
		t.Fatalf("second Do: %v %v %v", v, out, err)
	}
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Fatalf("Get after Do: %v %v", v, ok)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoErrorsNotCached(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	calls := 0
	fn := func() (int, error) { calls++; return 0, boom }
	for i := 0; i < 2; i++ {
		if _, _, err := c.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
			t.Fatalf("Do %d: err %v", i, err)
		}
	}
	if calls != 2 || c.Len() != 0 {
		t.Fatalf("fn ran %d times, %d entries: errors must not be cached", calls, c.Len())
	}
}

// TestDoDedup checks that concurrent identical requests share one
// computation and its result.
func TestDoDedup(t *testing.T) {
	c := New[string, int](4)
	ctx := context.Background()
	release := make(chan struct{})
	var runs int
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(ctx, "k", func() (int, error) { runs++; <-release; return 7, nil })
	}()
	waitInFlight(t, c, "k")

	const followers = 4
	type res struct {
		v   int
		out Outcome
		err error
	}
	results := make(chan res, followers)
	for i := 0; i < followers; i++ {
		go func() {
			v, out, err := c.Do(ctx, "k", func() (int, error) { runs++; return -1, nil })
			results <- res{v, out, err}
		}()
	}
	waitDedups(t, c, followers)
	close(release)
	<-leaderDone
	for i := 0; i < followers; i++ {
		r := <-results
		if r.err != nil || r.v != 7 || r.out != Dedup {
			t.Errorf("follower got %+v, want 7 dedup", r)
		}
	}
	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
}

// TestDoFollowerTimeout checks that a follower whose own context
// expires stops waiting, while the leader's computation completes and
// is cached.
func TestDoFollowerTimeout(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), "k", func() (int, error) { <-release; return 1, nil })
	}()
	waitInFlight(t, c, "k")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, out, err := c.Do(ctx, "k", nil); !errors.Is(err, context.DeadlineExceeded) || out != Dedup {
		t.Fatalf("follower: %v %v, want deadline exceeded", out, err)
	}
	close(release)
	<-leaderDone
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatalf("leader result not cached: %v %v", v, ok)
	}
}

// TestDoPanicReleasesKey checks that a panicking computation re-panics
// in the leader, hands its followers ErrPanicked, caches nothing, and
// leaves the key free: the next Do computes afresh at once.
func TestDoPanicReleasesKey(t *testing.T) {
	c := New[string, int](4)
	ctx := context.Background()
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.Do(ctx, "k", func() (int, error) { <-release; panic("boom") })
	}()
	waitInFlight(t, c, "k")
	follower := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", nil)
		follower <- err
	}()
	waitDedups(t, c, 1)
	close(release)

	if p := <-leaderPanic; p != "boom" {
		t.Fatalf("leader recovered %v, want the original panic", p)
	}
	if err := <-follower; !errors.Is(err, ErrPanicked) {
		t.Fatalf("follower err %v, want ErrPanicked", err)
	}
	if c.Len() != 0 {
		t.Fatal("a panicked computation was cached")
	}
	v, out, err := c.Do(ctx, "k", func() (int, error) { return 2, nil })
	if err != nil || v != 2 || out != Miss {
		t.Fatalf("Do after panic: %v %v %v, want a fresh computation", v, out, err)
	}
}

// TestConcurrentUse drives one instance from several goroutines with
// every method at once; run it under -race. Each key's value is a pure
// function of the key, so every read can be checked.
func TestConcurrentUse(t *testing.T) {
	c := New[int, int](16)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*7 + i) % 40
				switch i % 5 {
				case 0:
					c.Put(k, k*k)
				case 1:
					if v, ok := c.Get(k); ok && v != k*k {
						t.Errorf("Get(%d) = %d", k, v)
					}
				case 2:
					if v, _, err := c.Do(ctx, k, func() (int, error) { return k * k, nil }); err != nil || v != k*k {
						t.Errorf("Do(%d) = %d, %v", k, v, err)
					}
				case 3:
					c.Range(func(k, v int) bool {
						if v != k*k {
							t.Errorf("Range paired %d with %d", k, v)
						}
						return true
					})
				case 4:
					if g == 0 && i%100 == 4 {
						c.Reset()
					}
					c.SetMax(16)
					_ = c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Fatalf("%d entries, bound 16", n)
	}
}

// waitInFlight waits until a computation for k is registered.
func waitInFlight[K comparable, V any](t *testing.T, c *Cache[K, V], k K) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, ok := c.calls[k]
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("computation never started")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDedups waits until n followers have attached.
func waitDedups[K comparable, V any](t *testing.T, c *Cache[K, V], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dedups < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers attached", c.Stats().Dedups, n)
		}
		time.Sleep(time.Millisecond)
	}
}
