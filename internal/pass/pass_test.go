package pass

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

var keyN = NewKey[int]("n")

func incPass(name string, by int) *Pass {
	return &Pass{
		Name: name, Input: "n", Output: "n",
		Run: func(c *Context) error {
			v, _ := Get(c, keyN)
			Put(c, keyN, v+by)
			return nil
		},
	}
}

func TestRunOrderAndTrace(t *testing.T) {
	c := NewContext(context.Background())
	m := &Manager{}
	if err := m.Run(c, incPass("a", 1), incPass("b", 10), incPass("c", 100)); err != nil {
		t.Fatal(err)
	}
	if v := Need(c, keyN); v != 111 {
		t.Fatalf("artifact = %d, want 111", v)
	}
	tr := c.Trace()
	if len(tr.Passes) != 3 {
		t.Fatalf("trace has %d entries, want 3", len(tr.Passes))
	}
	for i, want := range []string{"a", "b", "c"} {
		if tr.Passes[i].Pass != want {
			t.Fatalf("trace[%d] = %q, want %q", i, tr.Passes[i].Pass, want)
		}
	}
}

func TestErrorPrefixedWithPassName(t *testing.T) {
	boom := errors.New("boom")
	failing := &Pass{Name: "schedule", Run: func(*Context) error { return boom }}
	err := (&Manager{}).Run(NewContext(context.Background()), incPass("a", 1), failing)
	if err == nil || !strings.HasPrefix(err.Error(), `pass "schedule": `) {
		t.Fatalf("err = %v, want pass %q prefix", err, "schedule")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v does not wrap the pass failure", err)
	}
}

func TestCancellationAbortsWithinOnePassBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewContext(ctx)
	ran := []string{}
	mk := func(name string) *Pass {
		return &Pass{Name: name, Run: func(*Context) error {
			ran = append(ran, name)
			if name == "b" {
				cancel() // cancellation arrives while b is executing
			}
			return nil
		}}
	}
	err := (&Manager{}).Run(c, mk("a"), mk("b"), mk("c"))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled (unwrapped)", err)
	}
	// b completes (it was in flight), c never starts.
	if got := strings.Join(ran, ","); got != "a,b" {
		t.Fatalf("ran %q, want a,b", got)
	}
	// The in-flight pass's timing is still recorded.
	if n := len(c.Trace().Passes); n != 2 {
		t.Fatalf("trace has %d entries, want 2", n)
	}
}

func TestContextErrorFromInsidePassStaysUnwrapped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inner := &Pass{Name: "simulate", Run: func(c *Context) error {
		cancel()
		return c.Ctx().Err()
	}}
	err := (&Manager{}).Run(NewContext(ctx), inner)
	if err != context.Canceled {
		t.Fatalf("err = %v, want bare context.Canceled", err)
	}
}

type snapInt struct{ v int }

func cacheablePass(name string, fp []byte, runs *int) *Pass {
	return &Pass{
		Name: name, Input: "n", Output: "n",
		Run: func(c *Context) error {
			*runs++
			v, _ := Get(c, keyN)
			Put(c, keyN, v*2+1)
			return nil
		},
		Fingerprint: func(c *Context) ([]byte, bool) { return fp, true },
		Snapshot:    func(c *Context) any { return &snapInt{v: Need(c, keyN)} },
		Restore:     func(c *Context, s any) { Put(c, keyN, s.(*snapInt).v) },
	}
}

func TestCacheHitRestoresWithoutRunning(t *testing.T) {
	cache := NewCache(0)
	runs := 0
	run := func(seed int) int {
		c := NewContext(context.Background())
		Put(c, keyN, seed)
		if err := (&Manager{Cache: cache}).Run(c, cacheablePass("double", []byte{byte(seed)}, &runs)); err != nil {
			t.Fatal(err)
		}
		return Need(c, keyN)
	}
	// A key's first sighting runs the pass and stores nothing, its
	// second runs it and stores the snapshot, and from the third on the
	// pass restores without running.
	for i, want := range []struct{ runs, stored int }{{1, 0}, {2, 1}, {2, 1}} {
		if v := run(3); v != 7 {
			t.Fatalf("run %d = %d, want 7", i+1, v)
		}
		if runs != want.runs || cache.Len() != want.stored {
			t.Fatalf("after run %d: pass ran %d times, cache holds %d snapshots; want %d and %d",
				i+1, runs, cache.Len(), want.runs, want.stored)
		}
	}
	for range 2 {
		if v := run(4); v != 9 {
			t.Fatalf("different fingerprint = %d, want 9", v)
		}
	}
	if runs != 4 {
		t.Fatalf("pass ran %d times, want 4 (a new key runs on its first two sightings)", runs)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d snapshots, want 2", cache.Len())
	}
	cache.Reset()
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d snapshots after Reset, want 0", cache.Len())
	}
}

func TestTraceAggregate(t *testing.T) {
	tr := &Trace{Passes: []Timing{
		{Pass: "a", Wall: 5, Cache: CacheMiss},
		{Pass: "b", Wall: 7},
		{Pass: "a", Wall: 3, Cache: CacheHit, Round: 2},
	}}
	ag := tr.Aggregate()
	if len(ag) != 2 || ag[0].Pass != "a" || ag[1].Pass != "b" {
		t.Fatalf("aggregate order = %+v, want [a b]", ag)
	}
	if ag[0].Runs != 2 || ag[0].Wall != 8 || ag[0].CacheHits != 1 || ag[0].CacheMisses != 1 {
		t.Fatalf("aggregate[a] = %+v", ag[0])
	}
	var nilTrace *Trace
	if nilTrace.Aggregate() != nil {
		t.Fatal("nil trace should aggregate to nil")
	}
}

func TestFormatDescs(t *testing.T) {
	out := FormatDescs([]Desc{
		{Name: "fold", Input: "ir", Output: "ir", Cacheable: true},
		{Name: "schedule", Input: "sched-input", Output: "schedule+syswcet", Cacheable: true, Loop: true},
		{Name: "validate", Input: "par-program", Output: "par-program"},
	})
	for _, want := range []string{"pass", "input", "output", "cacheable", "loop", "fold", "schedule", "per-round", "yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("listing has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestSeedTracePrepends(t *testing.T) {
	c := NewContext(context.Background())
	if err := (&Manager{}).Run(c, incPass("own", 1)); err != nil {
		t.Fatal(err)
	}
	c.SeedTrace([]Timing{{Pass: "check"}, {Pass: "lower"}})
	got := make([]string, len(c.Trace().Passes))
	for i, tm := range c.Trace().Passes {
		got[i] = tm.Pass
	}
	if fmt.Sprint(got) != "[check lower own]" {
		t.Fatalf("trace order = %v", got)
	}
}
