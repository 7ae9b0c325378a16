package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	calls := 0
	fn := func() (any, error) { calls++; return 42, nil }

	v, outcome, err := c.Do(ctx, "k", fn)
	if err != nil || v != 42 || outcome != OutcomeMiss {
		t.Fatalf("first Do: v=%v outcome=%v err=%v", v, outcome, err)
	}
	v, outcome, err = c.Do(ctx, "k", fn)
	if err != nil || v != 42 || outcome != OutcomeHit {
		t.Fatalf("second Do: v=%v outcome=%v err=%v", v, outcome, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	calls := 0
	boom := errors.New("boom")
	fn := func() (any, error) { calls++; return nil, boom }

	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (errors must not be cached)", calls)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after errors, want 0", n)
	}
}

// TestCacheDoPanicReleasesKey checks that a computation panicking in
// the leader does not wedge its key: the panic reaches the caller (the
// HTTP server recovers it per connection) and the next request for the
// key runs the computation again instead of waiting for a call that
// will never finish.
func TestCacheDoPanicReleasesKey(t *testing.T) {
	c := NewCache(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		c.Do(context.Background(), "k", func() (any, error) { panic("boom") })
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	v, outcome, err := c.Do(ctx, "k", func() (any, error) { return 1, nil })
	if err != nil || v != 1 || outcome != OutcomeMiss {
		t.Fatalf("Do after panic: v=%v outcome=%v err=%v after %v", v, outcome, err, time.Since(t0))
	}
}

// TestCacheSingleflight checks that concurrent identical requests share
// one computation: N-1 followers attach to the leader's in-flight call.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(4)
	ctx := context.Background()
	const followers = 5

	started := make(chan struct{})
	release := make(chan struct{})
	var calls int
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(ctx, "k", func() (any, error) {
			calls++
			close(started)
			<-release
			return "shared", nil
		})
	}()
	<-started

	var wg sync.WaitGroup
	results := make(chan Outcome, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, outcome, err := c.Do(ctx, "k", func() (any, error) {
				t.Error("follower executed fn")
				return nil, nil
			})
			if err != nil || v != "shared" {
				t.Errorf("follower: v=%v err=%v", v, err)
			}
			results <- outcome
		}()
	}
	// Let followers attach, then release the leader.
	deadline := time.After(2 * time.Second)
	for c.Stats().Dedups < followers {
		select {
		case <-deadline:
			t.Fatalf("only %d followers attached", c.Stats().Dedups)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	<-leaderDone
	close(results)
	for outcome := range results {
		if outcome != OutcomeDedup {
			t.Errorf("follower outcome %v, want dedup", outcome)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
}

// TestCacheFollowerTimeout checks a follower stops waiting when its own
// context expires while the leader keeps computing.
func TestCacheFollowerTimeout(t *testing.T) {
	c := NewCache(4)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, outcome, err := c.Do(ctx, "k", func() (any, error) { return nil, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	if outcome != OutcomeDedup {
		t.Fatalf("outcome %v, want dedup", outcome)
	}
}

func TestHashKeyCanonical(t *testing.T) {
	a := HashKey("argo/v1", "compile", "src", "entry")
	b := HashKey("argo/v1", "compile", "src", "entry")
	if a != b {
		t.Error("identical parts hash differently")
	}
	if HashKey("argo/v1", "optimize", "src", "entry") == a {
		t.Error("different kinds hash identically")
	}
	// Concatenation must not be ambiguous across part boundaries.
	if HashKey("ab", "c") == HashKey("a", "bc") {
		t.Error("part boundaries are ambiguous")
	}
	if len(a) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(a))
	}
}
