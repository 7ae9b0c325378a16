package main

// Properties of the generated inputs. These tests never assert what
// argod does with the inputs: cache hit ratios in particular are
// reported by the benchmark, never asserted, so a change that deletes a
// cache tier still runs and shows its cost.

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"argo/internal/scil"
	"argo/internal/service"
)

// stream returns a workload's set-up ops and its first n measured ops.
func stream(t *testing.T, workload string, seed int64, n int) (setup, window []op) {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	setup = g.setup()
	for i := 0; i < n; i++ {
		window = append(window, g.next())
	}
	return setup, window
}

func TestSeedGivesByteIdenticalStream(t *testing.T) {
	for _, w := range workloads {
		a1, b1 := stream(t, w, 7, 500)
		a2, b2 := stream(t, w, 7, 500)
		_, b3 := stream(t, w, 8, 500)
		s1, s2 := append(a1, b1...), append(a2, b2...)
		if len(s1) != len(s2) {
			t.Fatalf("%s: stream lengths %d and %d", w, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i].kind != s2[i].kind || s1[i].slot != s2[i].slot || !bytes.Equal(s1[i].body, s2[i].body) {
				t.Fatalf("%s: op %d differs between two streams of seed 7", w, i)
			}
		}
		same := 0
		for i := range b1 {
			if bytes.Equal(b1[i].body, b3[i].body) {
				same++
			}
		}
		if same == len(b1) {
			t.Errorf("%s: seeds 7 and 8 give the same measured stream", w)
		}
	}
}

func compileSource(t *testing.T, o op) string {
	t.Helper()
	var req service.CompileRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		t.Fatal(err)
	}
	return req.Source
}

func TestCompileColdNeverRepeatsAModel(t *testing.T) {
	setup, window := stream(t, wCompileCold, 3, 4000)
	seen := map[string]bool{}
	for i, o := range append(setup, window...) {
		src := compileSource(t, o)
		if seen[src] {
			t.Fatalf("op %d repeats a model text", i)
		}
		seen[src] = true
	}
	if len(setup) < 256 {
		t.Errorf("set-up holds %d compiles, fewer than the 256-entry result cache", len(setup))
	}
}

func TestPerturbChangesOneDecimalLiteral(t *testing.T) {
	for _, m := range models {
		src := useCase(m).Source
		lits := decimalLiterals(src)
		if len(lits) < 2 {
			t.Fatalf("%s: %d decimal literals", m, len(lits))
		}
		for _, l := range lits {
			if strings.Contains(src[strings.LastIndex(src[:l.start], "\n")+1:l.start], "//") {
				t.Errorf("%s: literal at %d is in a comment", m, l.start)
			}
			out := perturb(src, l, 12345)
			if out == src || out[:l.start] != src[:l.start] || !strings.HasSuffix(out, src[l.end:]) {
				t.Errorf("%s: perturbing the literal at %d changes more than the literal", m, l.start)
			}
		}
	}
}

func TestCompileWarmSourcesParseToTheirBase(t *testing.T) {
	format := func(src string) string {
		p, err := scil.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return scil.Format(p)
	}
	bases := map[string]string{}
	for _, m := range models {
		bases[m] = format(useCase(m).Source)
	}
	setup, window := stream(t, wCompileWarm, 5, 300)
	seen := map[string]bool{}
	for _, o := range append(setup, window...) {
		if format(compileSource(t, o)) != bases[strings.Split(o.base, "/")[0]] {
			t.Fatalf("%s: source does not parse to its base program", o.base)
		}
		seen[string(o.body)] = true
	}
	// Every request is new to the result cache.
	if len(seen) != len(setup)+len(window) {
		t.Errorf("%d distinct requests among %d compiles", len(seen), len(setup)+len(window))
	}
}

func TestSimulateRepeatedFreshSplit(t *testing.T) {
	setup, window := stream(t, wSimulate, 11, 3000)
	perPair := map[string]int{}
	for _, o := range setup {
		if len(o.seeds) != simRepeated || o.seeds[0] != 1 || o.seeds[simRepeated-1] != simRepeated {
			t.Fatalf("set-up seeds %v, want 1..%d", o.seeds, simRepeated)
		}
		perPair[o.base]++
	}
	for _, c := range pairs {
		if perPair[c.key()] != 2 {
			t.Errorf("%s simulated %d times in set-up, want 2", c.key(), perPair[c.key()])
		}
	}
	fresh := map[int64]bool{}
	for _, o := range window {
		if len(o.seeds) != 2 {
			t.Fatalf("%d seeds in one request, want 2", len(o.seeds))
		}
		r, f := o.seeds[0], o.seeds[1]
		if r < 1 || r > simRepeated {
			t.Fatalf("repeated seed %d outside 1..%d", r, simRepeated)
		}
		if f <= simRepeated || fresh[f] {
			t.Fatalf("fresh seed %d is repeated or in the repeated set", f)
		}
		fresh[f] = true
	}
}

func TestBlocksCoverEveryConfiguration(t *testing.T) {
	setup, window := stream(t, wCompileCold, 2, 3*len(baseConfigs))
	all := append(setup, window...)
	for b := 0; b < len(all)/len(baseConfigs); b++ {
		seen := map[string]bool{}
		for _, o := range all[b*len(baseConfigs) : (b+1)*len(baseConfigs)] {
			seen[o.base] = true
		}
		if len(seen) != len(baseConfigs) {
			t.Errorf("block %d covers %d of %d configurations", b, len(seen), len(baseConfigs))
		}
	}
}

func TestWhatifSessions(t *testing.T) {
	setup, window := stream(t, wWhatif, 13, 4000)
	type life struct {
		creates, edits int
		configs        []string
	}
	var lives [whatifSlots]life
	revisits, total := 0, 0
	for i, o := range append(setup, window...) {
		l := &lives[o.slot]
		switch o.kind {
		case opCreate:
			*l = life{creates: 1, configs: []string{o.cfg.key()}}
		case opEdit:
			if l.creates != 1 {
				t.Fatalf("op %d edits slot %d before a create", i, o.slot)
			}
			l.edits++
			k := o.cfg.key()
			for _, c := range l.configs {
				if c == k {
					revisits++
					break
				}
			}
			total++
			l.configs = append(l.configs, k)
			var req service.SessionEditRequest
			if err := json.Unmarshal(o.body, &req); err != nil {
				t.Fatal(err)
			}
			if req.Op == "replace-func" {
				p, err := scil.Parse(req.Source)
				if err != nil || len(p.Funcs) != 1 || p.Funcs[0].Name != req.Func {
					t.Fatalf("replace-func source does not hold exactly the function %s", req.Func)
				}
			}
		case opDelete:
			if l.edits != whatifEdits {
				t.Fatalf("slot %d deleted after %d edits, want %d", o.slot, l.edits, whatifEdits)
			}
			l.creates = 0
		}
	}
	// Small value sets: some edits revisit a configuration of their
	// session, most reach a new one.
	if revisits == 0 || revisits*2 > total {
		t.Errorf("%d of %d edits revisit a configuration", revisits, total)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric names and
// units equal to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside perfbench/")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		var want, got []string
		for _, m := range declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		for name, m := range printed {
			got = append(got, name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Errorf("%s metrics differ:\ndeclared %v\nprinted  %v", what, want, got)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics(nil, nil))
	rep := &report{Layers: &breakdown{SelfNS: map[string]int64{}}}
	check("per_layer", spec.PerLayer, layerMetrics(rep, newReplayer(), 0))
}
