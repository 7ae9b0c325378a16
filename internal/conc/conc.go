// Package conc is the bounded worker pool used by the optimizer's
// candidate ladder and the experiment tables. It provides deterministic
// fan-out: work items are claimed from an atomic counter in index order
// and callers store results by index, so the reduction order — and
// therefore every published result — is independent of scheduling.
//
// The pool publishes an expvar gauge, "argo_candidate_workers", counting
// in-flight workers across all concurrent fan-outs in the process.
package conc

import (
	"context"
	"expvar"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// InFlight is the number of currently running worker functions, exported
// as the expvar gauge "argo_candidate_workers" (visible on /debug/vars
// when the expvar HTTP handler is installed, as argod does).
var InFlight = expvar.NewInt("argo_candidate_workers")

// Normalize resolves a requested parallelism degree: values <= 0 mean
// GOMAXPROCS (the default for all fan-outs).
func Normalize(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError is what a fan-out returns when a worker function panics:
// the recovered value and the stack of the goroutine that panicked.
// After a panic no new index starts and calls already running finish,
// so one crashing candidate fails its fan-out instead of the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("conc: worker panicked: %v", e.Value) }

// Recover runs fn and turns a panic into a *PanicError carrying the
// panic value and the stack of the panicking goroutine; it returns nil
// when fn returns normally. Goroutines outside a fan-out use it at their
// boundary, so a crash fails one request instead of the process.
func Recover(fn func()) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// call runs fn under the InFlight gauge and turns a panic into a
// *PanicError.
func call(fn func()) *PanicError {
	InFlight.Add(1)
	defer InFlight.Add(-1)
	return Recover(fn)
}

// ForEach runs fn(i) for every i in [0, n) on at most Normalize(p)
// goroutines and blocks until all started work has finished. Indices are
// claimed in ascending order; fn must write its result into
// index-addressed storage so callers can reduce deterministically.
//
// If ctx is cancelled, no new indices are started (in-flight calls run
// to completion) and ForEach reports ctx.Err(); it returns nil once
// every index has run, even if ctx was cancelled afterwards. If fn
// panics, ForEach stops the same way and returns a *PanicError.
func ForEach(ctx context.Context, p, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	p = Normalize(p)
	if p > n {
		p = n
	}
	if p > 1 {
		return ForEachOn(ctx, []int{p}, n, func(_, i int) { fn(i) })
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if pe := call(func() { fn(i) }); pe != nil {
			return pe
		}
	}
	return nil
}

// ForEachOn is the heterogeneous-worker variant of ForEach — the seam
// remote candidate workers plug into. widths[w] goroutines run on
// behalf of worker w (a worker is typically one analysis replica, its
// width that replica's fan-out slots; a zero or negative width
// contributes no goroutines). Every goroutine claims indices from one
// shared atomic counter in ascending order and calls fn(w, i), so work
// spreads across workers by availability while callers still reduce
// deterministically by storing results at index i — the reduction, and
// therefore every published result, is bit-identical at any worker
// count or width.
//
// Cancellation and panics match ForEach: once ctx is cancelled or fn
// has panicked no new indices start, in-flight calls finish, and
// ForEachOn reports the *PanicError, else ctx.Err() unless every index
// already ran.
func ForEachOn(ctx context.Context, widths []int, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return nil
	}
	total := 0
	for _, w := range widths {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return fmt.Errorf("conc: no worker slots")
	}
	var (
		next, done atomic.Int64
		panicked   atomic.Pointer[PanicError]
		wg         sync.WaitGroup
	)
	next.Store(-1)
	for w, width := range widths {
		for s := 0; s < width; s++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ctx.Err() == nil && panicked.Load() == nil {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					if pe := call(func() { fn(w, i) }); pe != nil {
						panicked.CompareAndSwap(nil, pe)
						return
					}
					done.Add(1)
				}
			}(w)
		}
	}
	wg.Wait()
	if pe := panicked.Load(); pe != nil {
		return pe
	}
	if done.Load() == int64(n) {
		return nil
	}
	return ctx.Err()
}
