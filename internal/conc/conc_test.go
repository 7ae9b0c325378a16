package conc

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 64} {
		n := 100
		counts := make([]int64, n)
		if err := ForEach(context.Background(), p, n, func(i int) {
			atomic.AddInt64(&counts[i], 1)
		}); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, c)
			}
		}
	}
}

func TestForEachResultsAreIndexAddressed(t *testing.T) {
	n := 50
	out := make([]int, n)
	if err := ForEach(context.Background(), 8, n, func(i int) { out[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestForEachCancelledSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	err := ForEach(ctx, 2, 1000, func(i int) {
		if atomic.AddInt64(&ran, 1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt64(&ran); got >= 1000 {
		t.Fatalf("cancellation did not skip work (ran %d)", got)
	}
}

func TestForEachCompletedIgnoresLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Everything already done before the workers observe cancellation is
	// still success — but with a pre-cancelled context nothing runs.
	err := ForEach(ctx, 4, 10, func(i int) { t.Errorf("fn ran for %d", i) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) { t.Error("fn ran") }); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Normalize(0) = %d", got)
	}
	if got := Normalize(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Normalize(-3) = %d", got)
	}
	if got := Normalize(5); got != 5 {
		t.Fatalf("Normalize(5) = %d", got)
	}
}

func TestInFlightGaugeReturnsToZero(t *testing.T) {
	if err := ForEach(context.Background(), 4, 20, func(int) {}); err != nil {
		t.Fatal(err)
	}
	if v := InFlight.Value(); v != 0 {
		t.Fatalf("InFlight = %d after ForEach returned", v)
	}
}

func TestForEachOnCoversEveryIndexOnce(t *testing.T) {
	var counts [40]atomic.Int64
	workerSeen := make([]atomic.Int64, 3)
	err := ForEachOn(context.Background(), []int{2, 1, 3}, len(counts), func(w, i int) {
		counts[i].Add(1)
		workerSeen[w].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	var total int64
	for w := range workerSeen {
		total += workerSeen[w].Load()
	}
	if total != int64(len(counts)) {
		t.Fatalf("workers ran %d items, want %d", total, len(counts))
	}
}

func TestForEachOnSkipsNonPositiveWidths(t *testing.T) {
	err := ForEachOn(context.Background(), []int{0, 2, -1}, 10, func(w, i int) {
		if w != 1 {
			t.Errorf("worker %d ran despite width <= 0", w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachOnNoSlots(t *testing.T) {
	if err := ForEachOn(context.Background(), []int{0, -2}, 5, func(int, int) {}); err == nil {
		t.Fatal("no worker slots accepted")
	}
	if err := ForEachOn(context.Background(), nil, 5, func(int, int) {}); err == nil {
		t.Fatal("empty widths accepted")
	}
	// Zero items succeed trivially, even with no slots.
	if err := ForEachOn(context.Background(), nil, 0, func(int, int) { t.Error("fn ran") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := ForEachOn(ctx, []int{1, 1}, 1000, func(w, i int) {
		if started.Add(1) == 10 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("cancelled run reported nil")
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
	if v := InFlight.Value(); v != 0 {
		t.Fatalf("InFlight = %d after cancelled ForEachOn", v)
	}
}

// The reduction contract: results stored by index are identical at any
// worker/width shape.
func TestForEachOnDeterministicByIndex(t *testing.T) {
	shapes := [][]int{{1}, {4}, {1, 1, 1}, {2, 3}, {1, 0, 5}}
	var want []int
	for _, widths := range shapes {
		out := make([]int, 64)
		if err := ForEachOn(context.Background(), widths, len(out), func(w, i int) {
			out[i] = i * i
		}); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out
			continue
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("widths %v: out[%d] = %d, want %d", widths, i, out[i], want[i])
			}
		}
	}
}

// TestWorkerPanicReturnsError: a panicking fn fails the fan-out with a
// *PanicError carrying the panic value and its stack, on the serial and
// the parallel path of both functions, and the process survives. On the
// serial paths no index after the panicking one starts.
func TestWorkerPanicReturnsError(t *testing.T) {
	bg := context.Background()
	each := func(p int) func(fn func(int)) error {
		return func(fn func(int)) error { return ForEach(bg, p, 10, fn) }
	}
	on := func(widths ...int) func(fn func(int)) error {
		return func(fn func(int)) error {
			return ForEachOn(bg, widths, 10, func(_, i int) { fn(i) })
		}
	}
	for _, tc := range []struct {
		name   string
		run    func(fn func(int)) error
		serial bool
	}{
		{"ForEach/serial", each(1), true},
		{"ForEach/parallel", each(3), false},
		{"ForEachOn/serial", on(1), true},
		{"ForEachOn/parallel", on(2, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ran [10]atomic.Bool
			err := tc.run(func(i int) {
				ran[i].Store(true)
				if i == 4 {
					panic("boom")
				}
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Value != "boom" {
				t.Errorf("panic value = %v, want boom", pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "TestWorkerPanicReturnsError") {
				t.Errorf("stack does not reach the panicking fn:\n%s", pe.Stack)
			}
			if v := InFlight.Value(); v != 0 {
				t.Errorf("InFlight = %d after the fan-out returned", v)
			}
			if tc.serial {
				for i := 5; i < len(ran); i++ {
					if ran[i].Load() {
						t.Errorf("index %d started after the panic at 4", i)
					}
				}
			}
		})
	}
}

// TestWorkerPanicLetsInFlightCallsFinish: a call already running when
// another worker panics completes before the fan-out returns.
func TestWorkerPanicLetsInFlightCallsFinish(t *testing.T) {
	release := make(chan struct{})
	var finished atomic.Bool
	// Two workers: the one holding index 0 blocks until index 1, which
	// only the other worker can claim, is about to panic.
	err := ForEach(context.Background(), 2, 10, func(i int) {
		switch i {
		case 0:
			<-release
			finished.Store(true)
		case 1:
			close(release)
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !finished.Load() {
		t.Error("ForEach returned before the in-flight call finished")
	}
}

func TestRecover(t *testing.T) {
	if pe := Recover(func() {}); pe != nil {
		t.Fatalf("Recover of a normal return = %v, want nil", pe)
	}
	before := InFlight.Value()
	pe := Recover(func() { panic("boom") })
	if pe == nil || pe.Value != "boom" {
		t.Fatalf("Recover = %v, want the panic value boom", pe)
	}
	if !strings.Contains(string(pe.Stack), "TestRecover") {
		t.Errorf("stack does not reach the panicking fn:\n%s", pe.Stack)
	}
	if v := InFlight.Value(); v != before {
		t.Errorf("InFlight moved from %d to %d: Recover is not a fan-out worker", before, v)
	}
}
