package transform

import (
	"sort"

	"argo/internal/ir"
)

// SPMOptions parameterize WCET-directed scratchpad promotion with the
// relevant platform numbers (taken from the ADL by the tool-chain driver).
type SPMOptions struct {
	// CapacityBytes is the scratchpad capacity available for data.
	CapacityBytes int
	// SharedLatency and SPMLatency are worst-case per-element access
	// latencies (cycles) for shared memory and scratchpad.
	SharedLatency int
	SPMLatency    int
	// DMACostPerByte models the prologue/epilogue cost of staging a
	// buffer into/out of the scratchpad, in cycles per byte.
	DMACostPerByte float64
}

// SPMDecision reports the outcome of scratchpad promotion.
type SPMDecision struct {
	Promoted   []*ir.Var
	BytesUsed  int
	GainCycles int64 // estimated WCET cycles saved
	Candidates int
}

// PromoteScratchpad selects matrix variables to place in scratchpad
// memory, maximizing the estimated WCET gain under the capacity
// constraint (a 0/1 knapsack, solved exactly by dynamic programming over
// 8-byte words, in steps of the gcd of the candidates' sizes). Promotion
// sets Storage on the selected variables; the parallel-program
// construction stage may demote variables that end up shared between
// cores.
//
// The gain of promoting v is
//
//	accesses(v) * (SharedLatency - SPMLatency) - 2 * size(v) * DMACostPerByte
//
// where accesses(v) is the static worst-case access count and the DMA term
// accounts for staging in and out.
func PromoteScratchpad(prog *ir.Program, opt SPMOptions) SPMDecision {
	dec := SPMDecision{}
	if opt.CapacityBytes <= 0 || opt.SharedLatency <= opt.SPMLatency {
		return dec
	}
	counts := ir.CountAccesses(prog.Entry.Body)
	var cands []spmCand
	for _, v := range prog.MatrixVars() {
		if v.Storage != ir.StorageShared {
			continue
		}
		acc := counts.Total(v)
		if acc == 0 {
			continue
		}
		gain := acc*int64(opt.SharedLatency-opt.SPMLatency) - int64(2*float64(v.SizeBytes())*opt.DMACostPerByte)
		if gain <= 0 {
			continue
		}
		cands = append(cands, spmCand{v: v, words: v.Elems(), gain: gain})
	}
	dec.Candidates = len(cands)
	if len(cands) == 0 {
		return dec
	}
	// Deterministic order for reproducible ties.
	sort.Slice(cands, func(i, j int) bool { return cands[i].v.Name < cands[j].v.Name })
	dec.choose(cands, opt.CapacityBytes/8)
	for _, v := range dec.Promoted {
		v.Storage = ir.StorageSPM
	}
	return dec
}

// spmCand is one promotion candidate: a matrix, its size in 8-byte
// words and its estimated gain.
type spmCand struct {
	v     *ir.Var
	words int
	gain  int64
}

// dpLimit bounds the knapsack's table, in candidates times capacity
// words; a larger instance takes the greedy fallback.
const dpLimit = 4 << 20

// choose promotes the candidates an exact 0/1 knapsack picks within
// capWords when its DP table is affordable, and a greedy density-ordered
// fallback picks otherwise.
func (dec *SPMDecision) choose(cands []spmCand, capWords int) {
	if len(cands)*(capWords+1) > dpLimit {
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
		return
	}
	// Every subset's size is a multiple of g, the candidates' size gcd,
	// and at most their total, so a table over the multiples of g up to
	// min(capWords, total) takes the decisions of the table over every
	// word up to capWords and rebuilds the same set.
	g, total := 0, 0
	for _, c := range cands {
		g, total = gcd(g, c.words), total+c.words
	}
	if g == 0 {
		g = 1 // every candidate is empty
	}
	cols := min(capWords, total)/g + 1
	best := make([]int64, cols)
	take := make([]uint64, (len(cands)*cols+63)/64) // bit i*cols+w
	for i, c := range cands {
		step := c.words / g
		for w := cols - 1; w >= step; w-- {
			if cand := best[w-step] + c.gain; cand > best[w] {
				best[w] = cand
				bit := i*cols + w
				take[bit/64] |= 1 << (bit % 64)
			}
		}
	}
	w := cols - 1
	for i := len(cands) - 1; i >= 0; i-- {
		if bit := i*cols + w; take[bit/64]&(1<<(bit%64)) != 0 {
			dec.promote(cands[i])
			w -= cands[i].words / g
		}
	}
}

func (dec *SPMDecision) promote(c spmCand) {
	dec.Promoted = append(dec.Promoted, c.v)
	dec.GainCycles += c.gain
	dec.BytesUsed += c.words * 8
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
