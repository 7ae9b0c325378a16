package par_test

import (
	"fmt"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/ir"
	"argo/internal/par"
	"argo/internal/usecases"
)

// racingScalars lists the scalar write pairs of p that may run at the
// same time: two tasks on different cores with overlapping analyzed
// windows, neither reaching the other through dependences and same-core
// order, that both write one scalar.
func racingScalars(p *par.Program) (pairs [][2]int, vars []*ir.Var) {
	n := len(p.Graph.Nodes)
	succ := make([][]int, n)
	for _, d := range p.Input.Deps {
		succ[d.From] = append(succ[d.From], d.To)
	}
	for c := 0; c < p.Platform.NumCores(); c++ {
		order := p.Schedule.CoreOrder(c)
		for k := 1; k < len(order); k++ {
			succ[order[k-1]] = append(succ[order[k-1]], order[k])
		}
	}
	reach := make([][]bool, n)
	for t := range reach {
		reach[t] = make([]bool, n)
		stack := []int{t}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range succ[u] {
				if !reach[t][w] {
					reach[t][w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pa, pb := p.Schedule.Placements[a], p.Schedule.Placements[b]
			if pa.Core == pb.Core || reach[a][b] || reach[b][a] ||
				p.System.Finish[a] <= p.System.Start[b] || p.System.Finish[b] <= p.System.Start[a] {
				continue
			}
			wb := p.Graph.Nodes[b].Uses.ScalWrite()
			p.Graph.Nodes[a].Uses.ScalWrite().Each(func(v *ir.Var) bool {
				if wb.Has(v) {
					pairs = append(pairs, [2]int{a, b})
					vars = append(vars, v)
				}
				return true
			})
		}
	}
	return pairs, vars
}

// taskLocals reads the declarations at the head of each task_N body of
// emitted C.
func taskLocals(c string) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, chunk := range strings.Split(c, "static void task_")[1:] {
		var id int
		if _, err := fmt.Sscanf(chunk, "%d(void) {", &id); err != nil {
			continue
		}
		decl := map[string]bool{}
		for _, line := range strings.Split(chunk, "\n")[1:] {
			name, ok := strings.CutPrefix(line, "  double ")
			if !ok {
				break
			}
			decl[strings.TrimSuffix(name, ";")] = true
		}
		out[id] = decl
	}
	return out
}

// TestEmitCPrivatizesRacingScalars: every scalar two tasks may write at
// the same time on different cores is declared a local of both tasks in
// the emitted C, over the three use cases on every built-in platform.
func TestEmitCPrivatizesRacingScalars(t *testing.T) {
	total := 0
	for _, uc := range usecases.All() {
		prog, err := uc.Program()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range adl.BuiltinNames() {
			art, err := core.Compile(prog, core.DefaultOptions(uc.Entry, uc.Args, adl.Builtin(name)))
			if err != nil {
				t.Fatalf("%s/%s: %v", uc.Name, name, err)
			}
			pp := art.Parallel
			c := pp.EmitC()
			locals := taskLocals(c)
			pairs, vars := racingScalars(pp)
			total += len(pairs)
			for k, pr := range pairs {
				v := par.CName(vars[k].Name)
				for _, task := range pr {
					if !locals[task][v] {
						t.Fatalf("%s/%s: tasks %d and %d may write %s at once, but task %d does not declare it",
							uc.Name, name, pr[0], pr[1], v, task)
					}
				}
				if strings.Contains(c, "\nstatic double "+v+";\n") {
					t.Fatalf("%s/%s: racing scalar %s is also a file-scope static", uc.Name, name, v)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no racing scalar pairs: the check checks nothing")
	}
	t.Logf("%d racing write pairs, all on task locals", total)
}
