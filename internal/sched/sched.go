// Package sched implements ARGO's static scheduling/mapping stage (paper
// §II-B, §III-C): mapping the task graph onto the multi-core platform and
// computing a static order per core, optimizing the worst-case makespan.
//
// The NP-hard mapping problem is attacked with the combination the paper
// envisions: fast WCET-based list-scheduling heuristics (an upward-rank /
// HEFT-style scheduler, plus a contention-aware variant that penalizes
// co-scheduling shared-memory-heavy tasks) and an exact branch-and-bound
// search for small graphs.
package sched

import (
	"fmt"
	"sort"

	"argo/internal/adl"
	"argo/internal/htg"
)

// Task is one schedulable unit.
type Task struct {
	ID    int
	Label string
	// WCET is the isolated code-level bound per core id.
	WCET []int64
	// SharedAccesses bounds the task's shared-memory accesses.
	SharedAccesses int64
}

// Dep is a precedence edge with its communication volume.
type Dep struct {
	From, To    int
	VolumeBytes int
}

// Input is a scheduling problem.
type Input struct {
	Tasks    []Task
	Deps     []Dep
	Platform *adl.Platform
}

// FromHTG converts an annotated task graph into a scheduling problem.
func FromHTG(g *htg.Graph, p *adl.Platform) *Input {
	in := &Input{Platform: p}
	if len(g.Nodes) > 0 {
		in.Tasks = make([]Task, len(g.Nodes))
	}
	for i, n := range g.Nodes {
		in.Tasks[i] = Task{ID: n.ID, Label: n.Label, WCET: n.WCET, SharedAccesses: n.SharedAccesses}
	}
	if len(g.Edges) > 0 {
		in.Deps = make([]Dep, len(g.Edges))
	}
	for i, e := range g.Edges {
		in.Deps[i] = Dep{From: e.From, To: e.To, VolumeBytes: e.VolumeBytes}
	}
	return in
}

// CommCycles bounds the cost of transferring a dependence's buffers when
// producer and consumer run on different cores (DMA through the shared
// memory / NoC); zero on the same core.
func (in *Input) CommCycles(d Dep, fromCore, toCore int) int64 {
	if fromCore == toCore {
		return 0
	}
	return int64(in.Platform.DMACycles(toCore, d.VolumeBytes))
}

// adjacency holds per-task predecessor and successor dependence lists,
// built once per scheduling run so the inner loops of the list scheduler
// and the branch-and-bound search never rescan the full dependence list.
// Per-task lists preserve Deps order, so all iteration orders — and
// therefore all schedules — are identical to the former O(E) scans.
type adjacency struct {
	preds, succs [][]Dep
}

// buildAdjacency groups in.Deps by target and by source in O(V+E),
// packing both groupings into two shared backing arrays.
func buildAdjacency(in *Input) *adjacency {
	n := len(in.Tasks)
	predCnt := make([]int, n)
	succCnt := make([]int, n)
	for _, d := range in.Deps {
		predCnt[d.To]++
		succCnt[d.From]++
	}
	predBuf := make([]Dep, len(in.Deps))
	succBuf := make([]Dep, len(in.Deps))
	adj := &adjacency{preds: make([][]Dep, n), succs: make([][]Dep, n)}
	po, so := 0, 0
	for i := 0; i < n; i++ {
		adj.preds[i] = predBuf[po : po : po+predCnt[i]]
		po += predCnt[i]
		adj.succs[i] = succBuf[so : so : so+succCnt[i]]
		so += succCnt[i]
	}
	for _, d := range in.Deps {
		adj.preds[d.To] = append(adj.preds[d.To], d)
		adj.succs[d.From] = append(adj.succs[d.From], d)
	}
	return adj
}

// Placement is one task's slot in a schedule.
type Placement struct {
	Task   int
	Core   int
	Start  int64
	Finish int64
}

// Schedule is a static time-triggered schedule.
type Schedule struct {
	// Placements is indexed by task id.
	Placements []Placement
	Makespan   int64
	Cores      int
	// Policy records which algorithm produced the schedule.
	Policy Policy
}

// CoreOrder returns task ids on one core in start order.
func (s *Schedule) CoreOrder(core int) []int {
	var ids []int
	for _, pl := range s.Placements {
		if pl.Core == core {
			ids = append(ids, pl.Task)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return s.Placements[ids[i]].Start < s.Placements[ids[j]].Start })
	return ids
}

// Validate checks precedence (with communication) and core exclusivity.
func (s *Schedule) Validate(in *Input) error {
	if len(s.Placements) != len(in.Tasks) {
		return fmt.Errorf("sched: %d placements for %d tasks", len(s.Placements), len(in.Tasks))
	}
	for _, pl := range s.Placements {
		if pl.Core < 0 || pl.Core >= in.Platform.NumCores() {
			return fmt.Errorf("sched: task %d on invalid core %d", pl.Task, pl.Core)
		}
		dur := in.Tasks[pl.Task].WCET[pl.Core]
		if pl.Finish-pl.Start < dur {
			return fmt.Errorf("sched: task %d window %d shorter than WCET %d", pl.Task, pl.Finish-pl.Start, dur)
		}
		if pl.Finish > s.Makespan {
			return fmt.Errorf("sched: task %d finishes at %d after makespan %d", pl.Task, pl.Finish, s.Makespan)
		}
	}
	for _, d := range in.Deps {
		from, to := s.Placements[d.From], s.Placements[d.To]
		need := from.Finish + in.CommCycles(d, from.Core, to.Core)
		if to.Start < need {
			return fmt.Errorf("sched: dependence %d->%d violated: start %d < %d", d.From, d.To, to.Start, need)
		}
	}
	for c := 0; c < in.Platform.NumCores(); c++ {
		order := s.CoreOrder(c)
		for i := 1; i < len(order); i++ {
			prev, cur := s.Placements[order[i-1]], s.Placements[order[i]]
			if cur.Start < prev.Finish {
				return fmt.Errorf("sched: tasks %d and %d overlap on core %d", prev.Task, cur.Task, c)
			}
		}
	}
	return nil
}

// Policy selects the scheduling algorithm.
type Policy int

// Scheduling policies.
const (
	// ListOblivious is HEFT-style list scheduling that ignores
	// shared-resource contention (the average-case-oriented baseline).
	ListOblivious Policy = iota
	// ListContentionAware penalizes placements that overlap
	// shared-memory-heavy tasks on other cores (the ARGO approach:
	// reduce the number of contenders at any point in time).
	ListContentionAware
	// BranchBound searches core assignments exhaustively with
	// branch-and-bound, seeded by the contention-aware heuristic.
	BranchBound
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case ListOblivious:
		return "list-oblivious"
	case ListContentionAware:
		return "list-contention-aware"
	case BranchBound:
		return "branch-and-bound"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Run schedules the input with the selected policy.
func Run(in *Input, pol Policy) (*Schedule, error) {
	if err := checkInput(in); err != nil {
		return nil, err
	}
	adj := buildAdjacency(in)
	switch pol {
	case ListOblivious:
		return listSchedule(in, adj, false), nil
	case ListContentionAware:
		return listSchedule(in, adj, true), nil
	case BranchBound:
		return branchBound(in, adj), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %v", pol)
}

func checkInput(in *Input) error {
	k := in.Platform.NumCores()
	for i, t := range in.Tasks {
		if t.ID != i {
			return fmt.Errorf("sched: task %d has id %d (must be dense)", i, t.ID)
		}
		if len(t.WCET) != k {
			return fmt.Errorf("sched: task %d has %d WCETs for %d cores", i, len(t.WCET), k)
		}
	}
	for _, d := range in.Deps {
		if d.From < 0 || d.To >= len(in.Tasks) || d.From >= d.To {
			return fmt.Errorf("sched: bad dependence %d->%d", d.From, d.To)
		}
	}
	return nil
}

// meanCommCycles is the mean communication cost of a dependence over all
// ordered pairs of distinct cores: sum over from != to of
// CommCycles(d, from, to), divided by k(k-1). CommCycles depends only on
// the destination core (DMA cost is charged where the data lands), so
// every destination contributes k-1 equal terms and the mean collapses
// to the destination average.
func meanCommCycles(in *Input, d Dep) float64 {
	k := in.Platform.NumCores()
	if k == 1 {
		return 0
	}
	var sum float64
	for to := 0; to < k; to++ {
		sum += float64(in.CommCycles(d, (to+1)%k, to))
	}
	return sum / float64(k)
}

// upwardRanks computes HEFT upward ranks with mean WCET and mean
// communication cost.
func upwardRanks(in *Input, adj *adjacency) []float64 {
	k := in.Platform.NumCores()
	meanW := func(t Task) float64 {
		s := 0.0
		for _, w := range t.WCET {
			s += float64(w)
		}
		return s / float64(k)
	}
	ranks := make([]float64, len(in.Tasks))
	for i := len(in.Tasks) - 1; i >= 0; i-- {
		best := 0.0
		for _, d := range adj.succs[i] {
			r := meanCommCycles(in, d) + ranks[d.To]
			if r > best {
				best = r
			}
		}
		ranks[i] = meanW(in.Tasks[i]) + best
	}
	return ranks
}

// listSchedule is insertion-based HEFT: tasks in decreasing upward rank,
// each placed on the core and idle slot minimizing its (optionally
// contention-penalized) finish time. Insertion lets a later-ranked task
// fill a gap a communication delay left open.
func listSchedule(in *Input, adj *adjacency, aware bool) *Schedule {
	k := in.Platform.NumCores()
	ranks := upwardRanks(in, adj)
	order := make([]int, len(in.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if ranks[order[a]] != ranks[order[b]] {
			return ranks[order[a]] > ranks[order[b]]
		}
		return order[a] < order[b]
	})
	s := &Schedule{Placements: make([]Placement, len(in.Tasks)), Cores: k}
	if aware {
		s.Policy = ListContentionAware
	}
	// busy[c] holds the core's placements sorted by start time;
	// sharedBusy[c] only those with shared-memory accesses, so the
	// contention penalty can probe overlap in O(log n) per core instead
	// of rescanning every placed task.
	busy := make([][]Placement, k)
	var sharedBusy [][]Placement
	if aware {
		sharedBusy = make([][]Placement, k)
	}
	for _, t := range order {
		bestCore, bestStart, bestScore := -1, int64(0), int64(0)
		for c := 0; c < k; c++ {
			ready := int64(0)
			for _, d := range adj.preds[t] {
				p := s.Placements[d.From]
				r := p.Finish + in.CommCycles(d, p.Core, c)
				if r > ready {
					ready = r
				}
			}
			est := earliestSlot(busy[c], ready, in.Tasks[t].WCET[c])
			finish := est + in.Tasks[t].WCET[c]
			score := finish
			if aware {
				score += contentionPenalty(in, sharedBusy, t, c, est, finish)
			}
			if bestCore < 0 || score < bestScore {
				bestCore, bestStart, bestScore = c, est, score
			}
		}
		fin := bestStart + in.Tasks[t].WCET[bestCore]
		pl := Placement{Task: t, Core: bestCore, Start: bestStart, Finish: fin}
		s.Placements[t] = pl
		busy[bestCore] = insertSorted(busy[bestCore], pl)
		if aware && in.Tasks[t].SharedAccesses > 0 {
			sharedBusy[bestCore] = insertSorted(sharedBusy[bestCore], pl)
		}
		if fin > s.Makespan {
			s.Makespan = fin
		}
	}
	return s
}

// earliestSlot returns the earliest start >= ready at which a task of the
// given duration fits into the core's idle gaps (busy sorted by start).
func earliestSlot(busy []Placement, ready, dur int64) int64 {
	start := ready
	for _, b := range busy {
		if start+dur <= b.Start {
			return start // fits in the gap before b
		}
		if b.Finish > start {
			start = b.Finish
		}
	}
	return start
}

// insertSorted inserts pl keeping the slice sorted by start time.
func insertSorted(busy []Placement, pl Placement) []Placement {
	i := sort.Search(len(busy), func(i int) bool { return busy[i].Start >= pl.Start })
	busy = append(busy, Placement{})
	copy(busy[i+1:], busy[i:])
	busy[i] = pl
	return busy
}

// contentionPenalty estimates the system-level inflation of placing task
// t on core c in [start, finish): t's own shared accesses delayed by the
// distinct other cores running overlapping shared-memory-active tasks
// (the same model the system-level analysis applies afterwards).
// sharedBusy holds, per core, the shared-memory-active placements sorted
// by start time; a core contends iff any of its intervals overlaps the
// window, which one binary search decides.
func contentionPenalty(in *Input, sharedBusy [][]Placement, t, c int, start, finish int64) int64 {
	if in.Tasks[t].SharedAccesses == 0 {
		return 0
	}
	contenders := 0
	for oc := range sharedBusy {
		if oc != c && overlapsWindow(sharedBusy[oc], start, finish) {
			contenders++
		}
	}
	if contenders == 0 {
		return 0
	}
	delay := int64(in.Platform.AccessInterferenceDelay(contenders))
	return in.Tasks[t].SharedAccesses * delay
}

// overlapsWindow reports whether any placement intersects [start, finish).
// busy is sorted by start and pairwise non-overlapping (one core's
// timeline), so it is also sorted by finish: the first interval ending
// after the window opens is the only overlap candidate.
func overlapsWindow(busy []Placement, start, finish int64) bool {
	i := sort.Search(len(busy), func(i int) bool { return busy[i].Finish > start })
	return i < len(busy) && busy[i].Start < finish
}

// branchBound searches all core assignments (tasks in topological id
// order, earliest-start placement) with pruning, seeded by the
// contention-aware heuristic as incumbent.
func branchBound(in *Input, adj *adjacency) *Schedule {
	k := in.Platform.NumCores()
	incumbent := listSchedule(in, adj, true)
	best := incumbent.Makespan
	bestAssign := make([]int, len(in.Tasks))
	for i, pl := range incumbent.Placements {
		bestAssign[i] = pl.Core
	}
	// Remaining-work lower bound: sum of min WCET of remaining tasks / k.
	minW := make([]int64, len(in.Tasks))
	for i, t := range in.Tasks {
		m := t.WCET[0]
		for _, w := range t.WCET {
			if w < m {
				m = w
			}
		}
		minW[i] = m
	}
	suffix := make([]int64, len(in.Tasks)+1)
	for i := len(in.Tasks) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + minW[i]
	}
	assign := make([]int, len(in.Tasks))
	finish := make([]int64, len(in.Tasks))
	coreAvail := make([]int64, k)
	nodes := 0
	const nodeCap = 2_000_000
	var dfs func(i int, makespan int64)
	dfs = func(i int, makespan int64) {
		nodes++
		if nodes > nodeCap {
			return
		}
		if i == len(in.Tasks) {
			if makespan < best {
				best = makespan
				copy(bestAssign, assign)
			}
			return
		}
		// Lower bound: even spreading the cheapest remaining work over
		// all cores cannot finish before this.
		lb := makespan
		var minAvail int64 = 1<<62 - 1
		for _, a := range coreAvail {
			if a < minAvail {
				minAvail = a
			}
		}
		if l := minAvail + suffix[i]/int64(k); l > lb {
			lb = l
		}
		if lb >= best {
			return
		}
		for c := 0; c < k; c++ {
			est := coreAvail[c]
			for _, d := range adj.preds[i] {
				ready := finish[d.From] + in.CommCycles(d, assign[d.From], c)
				if ready > est {
					est = ready
				}
			}
			fin := est + in.Tasks[i].WCET[c]
			if fin >= best {
				continue
			}
			assign[i] = c
			finish[i] = fin
			savedAvail := coreAvail[c]
			coreAvail[c] = fin
			m2 := makespan
			if fin > m2 {
				m2 = fin
			}
			dfs(i+1, m2)
			coreAvail[c] = savedAvail
		}
	}
	dfs(0, 0)
	// Rebuild the schedule from the best assignment. The search places
	// tasks append-only in id order; the insertion-based incumbent may
	// still be better — keep whichever wins.
	s := replay(in, adj, bestAssign)
	if incumbent.Makespan < s.Makespan {
		s = incumbent
	}
	s.Policy = BranchBound
	return s
}

// replay builds the earliest-start schedule for a fixed core assignment
// with tasks placed in id (topological) order.
func replay(in *Input, adj *adjacency, assign []int) *Schedule {
	k := in.Platform.NumCores()
	s := &Schedule{Placements: make([]Placement, len(in.Tasks)), Cores: k}
	coreAvail := make([]int64, k)
	for t := range in.Tasks {
		c := assign[t]
		est := coreAvail[c]
		for _, d := range adj.preds[t] {
			p := s.Placements[d.From]
			ready := p.Finish + in.CommCycles(d, p.Core, c)
			if ready > est {
				est = ready
			}
		}
		fin := est + in.Tasks[t].WCET[c]
		s.Placements[t] = Placement{Task: t, Core: c, Start: est, Finish: fin}
		coreAvail[c] = fin
		if fin > s.Makespan {
			s.Makespan = fin
		}
	}
	return s
}
