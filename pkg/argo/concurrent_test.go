package argo_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"argo/pkg/argo"
)

// TestConcurrentCompile compiles every built-in use case on every
// built-in platform from concurrent goroutines (run with -race). The
// pipeline entry points must be reentrant: compilations share the
// use-case values, platform library and warm pass-cache snapshots but
// no mutable state, and every concurrent result must equal the
// sequential reference in bound and result fingerprint.
func TestConcurrentCompile(t *testing.T) {
	type pair struct {
		uc   *argo.UseCase
		plat *argo.PlatformDesc
	}
	type result struct {
		bound int64
		fp    string
	}
	var pairs []pair
	ref := make(map[string]result)
	for _, uc := range argo.UseCases() {
		for _, name := range argo.PlatformNames() {
			plat := argo.Platform(name)
			art, err := argo.CompileUseCase(uc, plat)
			if err != nil {
				t.Fatalf("reference compile %s/%s: %v", uc.Name, name, err)
			}
			ref[uc.Name+"/"+plat.Name] = result{art.Bound(), argo.SessionResultFingerprint(art)}
			pairs = append(pairs, pair{uc, plat})
		}
	}

	const workersPerPair = 2
	var wg sync.WaitGroup
	errc := make(chan error, len(pairs)*workersPerPair)
	for _, p := range pairs {
		for w := 0; w < workersPerPair; w++ {
			wg.Add(1)
			go func(p pair) {
				defer wg.Done()
				art, err := argo.CompileUseCase(p.uc, p.plat)
				if err != nil {
					errc <- fmt.Errorf("%s/%s: %v", p.uc.Name, p.plat.Name, err)
					return
				}
				want := ref[p.uc.Name+"/"+p.plat.Name]
				if got := art.Bound(); got != want.bound {
					errc <- fmt.Errorf("%s/%s: concurrent bound %d != sequential %d",
						p.uc.Name, p.plat.Name, got, want.bound)
				}
				if got := argo.SessionResultFingerprint(art); got != want.fp {
					errc <- fmt.Errorf("%s/%s: concurrent result fingerprint %.16s != sequential %.16s",
						p.uc.Name, p.plat.Name, got, want.fp)
				}
			}(p)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentSimulate runs the simulator over one shared, freshly
// compiled *Artifacts from many goroutines, which race to record the
// program's invariant traces and event-loop prefix. Simulation must only
// read the compiled program: every run must stay within the static bound
// and equal a serial run of the same seed on a program of its own.
func TestConcurrentSimulate(t *testing.T) {
	const goroutines = 8
	for _, name := range []string{"weaa", "egpws", "polka"} {
		for _, pname := range []string{"xentium4", "leon3-4x4"} {
			uc, plat := argo.UseCaseByName(name), argo.Platform(pname)
			t.Run(name+"/"+pname, func(t *testing.T) {
				want := make([]string, goroutines)
				for g := range want {
					art, err := argo.CompileUseCase(uc, plat)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := argo.Simulate(art, uc.Inputs(int64(g+1)))
					if err != nil {
						t.Fatal(err)
					}
					want[g] = fmt.Sprint(*rep)
				}
				art, err := argo.CompileUseCase(uc, plat)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errc := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						seed := int64(g + 1)
						rep, err := argo.Simulate(art, uc.Inputs(seed))
						if err != nil {
							errc <- fmt.Errorf("seed %d: %v", seed, err)
							return
						}
						if err := argo.CheckBounds(art, rep); err != nil {
							errc <- fmt.Errorf("seed %d: %v", seed, err)
						}
						if got := fmt.Sprint(*rep); got != want[g] {
							errc <- fmt.Errorf("seed %d: concurrent report differs from the serial cold run\n got  %s\n want %s", seed, got, want[g])
						}
					}(g)
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Error(err)
				}
			})
		}
	}
}

// TestCompileContextCancelled verifies the context-aware entry points
// stop on an already-cancelled context.
func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	uc := argo.UseCaseByName("polka")
	if _, err := argo.CompileUseCaseContext(ctx, uc, argo.Platform("xentium4")); !errors.Is(err, context.Canceled) {
		t.Errorf("CompileUseCaseContext: got %v, want context.Canceled", err)
	}
	if _, err := argo.OptimizeUseCaseContext(ctx, uc, argo.Platform("xentium2")); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeUseCaseContext: got %v, want context.Canceled", err)
	}
	art, err := argo.CompileUseCase(uc, argo.Platform("xentium4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := argo.SimulateContext(ctx, art, uc.Inputs(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateContext: got %v, want context.Canceled", err)
	}
}
