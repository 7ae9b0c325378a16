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
// 8-byte words). Promotion sets Storage on the selected variables; the
// parallel-program construction stage may demote variables that end up
// shared between cores.
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
	type cand struct {
		v     *ir.Var
		words int
		gain  int64
	}
	var cands []cand
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
		cands = append(cands, cand{v: v, words: v.Elems(), gain: gain})
	}
	dec.Candidates = len(cands)
	if len(cands) == 0 {
		return dec
	}
	// Deterministic order for reproducible ties.
	sort.Slice(cands, func(i, j int) bool { return cands[i].v.Name < cands[j].v.Name })
	capWords := opt.CapacityBytes / 8
	// Exact 0/1 knapsack when the DP table is affordable, greedy
	// density-ordered fallback otherwise.
	const dpLimit = 4 << 20
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
				dec.Promoted = append(dec.Promoted, cands[i].v)
				dec.GainCycles += cands[i].gain
				dec.BytesUsed += cands[i].words * 8
				w -= cands[i].words
			}
		}
	} else {
		sort.SliceStable(cands, func(i, j int) bool {
			return float64(cands[i].gain)/float64(cands[i].words) > float64(cands[j].gain)/float64(cands[j].words)
		})
		left := capWords
		for _, c := range cands {
			if c.words <= left {
				dec.Promoted = append(dec.Promoted, c.v)
				dec.GainCycles += c.gain
				dec.BytesUsed += c.words * 8
				left -= c.words
			}
		}
	}
	for _, v := range dec.Promoted {
		v.Storage = ir.StorageSPM
	}
	return dec
}
