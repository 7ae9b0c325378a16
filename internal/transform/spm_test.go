package transform

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"argo/internal/ir"
)

// refChoose is the knapsack choose replaced, kept as the reference it
// must agree with: one []bool row per candidate over every capacity word
// up to capWords, and the same greedy fallback.
func refChoose(cands []spmCand, capWords int) SPMDecision {
	var dec SPMDecision
	if len(cands)*(capWords+1) <= dpLimit {
		best := make([]int64, capWords+1)
		take := make([][]bool, len(cands))
		for i, c := range cands {
			take[i] = make([]bool, capWords+1)
			for w := capWords; w >= c.words; w-- {
				if cand := best[w-c.words] + c.gain; cand > best[w] {
					best[w] = cand
					take[i][w] = true
				}
			}
		}
		w := capWords
		for i := len(cands) - 1; i >= 0; i-- {
			if take[i][w] {
				dec.promote(cands[i])
				w -= cands[i].words
			}
		}
		return dec
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return float64(cands[i].gain)/float64(cands[i].words) > float64(cands[j].gain)/float64(cands[j].words)
	})
	left := capWords
	for _, c := range cands {
		if c.words <= left {
			dec.promote(c)
			left -= c.words
		}
	}
	return dec
}

// checkChoose runs choose and the reference on copies of cands and
// reports a difference in the promoted set, its order, the gain or the
// bytes used.
func checkChoose(t *testing.T, label string, cands []spmCand, capWords int) SPMDecision {
	t.Helper()
	var got SPMDecision
	got.choose(append([]spmCand(nil), cands...), capWords)
	want := refChoose(append([]spmCand(nil), cands...), capWords)
	if !reflect.DeepEqual(got.Promoted, want.Promoted) || got.GainCycles != want.GainCycles || got.BytesUsed != want.BytesUsed {
		t.Errorf("%s, capacity %d words, candidates %v: promoted %v (gain %d, %d bytes), reference %v (gain %d, %d bytes)",
			label, capWords, cands, got.Promoted, got.GainCycles, got.BytesUsed, want.Promoted, want.GainCycles, want.BytesUsed)
	}
	return got
}

// TestChooseMatchesReference draws candidate sets whose sizes share a
// gcd, with gains from a small range so that ties occur, and capacities
// from 0 to past the total, multiples of the gcd or not.
func TestChooseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vars := make([]*ir.Var, 11)
	for i := range vars {
		vars[i] = &ir.Var{Name: fmt.Sprintf("m%d", i)}
	}
	promoted := 0
	for trial := 0; trial < 4000; trial++ {
		g := []int{1, 2, 3, 8, 144}[rng.Intn(5)]
		cands := make([]spmCand, 1+rng.Intn(10))
		total := 0
		for i := range cands {
			cands[i] = spmCand{v: vars[i], words: g * (1 + rng.Intn(12)), gain: int64(1 + rng.Intn(6))}
			total += cands[i].words
		}
		if trial%5 == 0 {
			k := rng.Intn(len(cands))
			total -= cands[k].words
			cands[k].words = 0
		}
		capWords := rng.Intn(total + 2*g + 2)
		dec := checkChoose(t, fmt.Sprintf("trial %d, gcd %d", trial, g), cands, capWords)
		promoted += len(dec.Promoted)
	}
	if promoted == 0 {
		t.Fatal("vacuous trials: nothing promoted")
	}
	// Only empty candidates: their gcd is 0.
	checkChoose(t, "empty candidates", []spmCand{{v: vars[0], gain: 3}, {v: vars[1], gain: 2}}, 5)
}

// TestChooseGreedyAboveTableLimit pins the path choice on the full
// capacity: past dpLimit the greedy fallback decides even where a table
// would pick a better set (b and c fill the capacity exactly).
func TestChooseGreedyAboveTableLimit(t *testing.T) {
	a, b, c := &ir.Var{Name: "a"}, &ir.Var{Name: "b"}, &ir.Var{Name: "c"}
	cands := []spmCand{
		{v: a, words: 1_600_000, gain: 1_700_000},
		{v: b, words: 1_500_000, gain: 1_500_000},
		{v: c, words: 1_500_000, gain: 1_500_000},
	}
	capWords := 3_000_000
	if len(cands)*(capWords+1) <= dpLimit {
		t.Fatal("instance under the table limit")
	}
	dec := checkChoose(t, "above the table limit", cands, capWords)
	if !reflect.DeepEqual(dec.Promoted, []*ir.Var{a}) {
		t.Fatalf("promoted %v, want the greedy pick [a]", dec.Promoted)
	}
}
