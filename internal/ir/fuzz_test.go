package ir_test

import (
	"fmt"
	"math/rand"
	"testing"

	"argo/internal/ir"
	"argo/internal/scil"
	"argo/internal/transform"
)

// fuzzTransforms decodes one byte into transformation options; 0 keeps
// the program as lowered.
func fuzzTransforms(bits byte) transform.Options {
	on := func(i uint) bool { return bits&(1<<i) != 0 }
	opt := transform.Options{Fold: on(0), Hoist: on(1), Fission: on(2), Fusion: on(3), ElideInits: on(4)}
	if on(5) {
		opt.UnrollFactor = 2
	}
	if on(6) {
		opt.TileI, opt.TileJ = 2, 3
	}
	if on(7) {
		opt.ParallelChunks = 4
	}
	return opt
}

// FuzzRegionSummaries checks the region summaries against their
// references on generated programs: the def-use summary for every
// variable and the access counts, over every suffix of every statement
// list, as lowered or after the transformations one byte selects.
func FuzzRegionSummaries(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, byte(0))
		f.Add(seed, byte(0xff))
	}
	f.Fuzz(func(t *testing.T, seed int64, transforms byte) {
		cfg := scil.DefaultGenConfig()
		src := scil.Generate(rand.New(rand.NewSource(seed)), cfg)
		prog, err := ir.Lower(src, "fuzz", []ir.ArgSpec{ir.MatrixArg(cfg.Rows, cfg.Cols)})
		if err != nil {
			t.Fatalf("lower: %v", err)
		}
		if transforms != 0 {
			transform.Apply(prog, fuzzTransforms(transforms))
		}
		label := fmt.Sprintf("seed %d, transforms %#02x", seed, transforms)
		checkDefinesBeforeUse(t, label, prog)
		checkCountAccesses(t, label, prog)
	})
}
