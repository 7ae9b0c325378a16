// Package mhp implements the may-happen-in-parallel analysis of ARGO's
// system-level WCET stage (paper §II-D): a static analysis that
// determines, as accurately as possible, whether two code snippets
// (tasks) may execute concurrently on the platform.
//
// Three facts refute parallelism, and the analysis uses all of them:
//
//  1. same core — execution on one core is sequential;
//  2. dependence order — a (transitive) dependence path between the
//     tasks orders them;
//  3. disjoint time windows — the schedule is time-triggered (tasks are
//     released no earlier than their static start), so two tasks with
//     non-overlapping [start, finish) windows never overlap.
package mhp

import (
	"argo/internal/sched"
)

// Analysis is a prepared MHP query structure for one schedule.
type Analysis struct {
	in *sched.Input
	s  *sched.Schedule
	// reach is the transitive dependence reachability as one flat n×n
	// row-major matrix (a single allocation instead of n row slices).
	reach []bool
	n     int
}

// New builds the analysis (computes dependence reachability).
func New(in *sched.Input, s *sched.Schedule) *Analysis {
	n := len(in.Tasks)
	reach := make([]bool, n*n)
	for _, d := range in.Deps {
		reach[d.From*n+d.To] = true
	}
	// Warshall over the topological (id) order, row-sliced.
	for k := 0; k < n; k++ {
		kr := reach[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			if reach[i*n+k] {
				ir := reach[i*n : (i+1)*n]
				for j, r := range kr {
					if r {
						ir[j] = true
					}
				}
			}
		}
	}
	return &Analysis{in: in, s: s, reach: reach, n: n}
}

// Ordered reports whether a dependence path orders tasks a and b.
func (an *Analysis) Ordered(a, b int) bool {
	return an.reach[a*an.n+b] || an.reach[b*an.n+a]
}

// MayHappenInParallel reports whether tasks a and b may overlap in time.
// Windows may be overridden (e.g. by the interference fixpoint) via the
// start/finish slices; pass nil to use the schedule's own windows.
func (an *Analysis) MayHappenInParallel(a, b int, start, finish []int64) bool {
	if a == b {
		return false
	}
	pa, pb := an.s.Placements[a], an.s.Placements[b]
	if pa.Core == pb.Core {
		return false
	}
	if an.Ordered(a, b) {
		return false
	}
	sa, fa, sb, fb := pa.Start, pa.Finish, pb.Start, pb.Finish
	if start != nil {
		sa, fa, sb, fb = start[a], finish[a], start[b], finish[b]
	}
	return sa < fb && sb < fa
}

// ParallelSet returns all tasks that may happen in parallel with task t.
func (an *Analysis) ParallelSet(t int, start, finish []int64) []int {
	var out []int
	for o := range an.in.Tasks {
		if an.MayHappenInParallel(t, o, start, finish) {
			out = append(out, o)
		}
	}
	return out
}

// ContenderCores returns the number of distinct other cores that host at
// least one task which may happen in parallel with t and performs shared
// accesses — the contender count for the interference cost model.
func (an *Analysis) ContenderCores(t int, start, finish []int64) int {
	cores := map[int]bool{}
	for _, o := range an.ParallelSet(t, start, finish) {
		if an.in.Tasks[o].SharedAccesses > 0 {
			cores[an.s.Placements[o].Core] = true
		}
	}
	return len(cores)
}
