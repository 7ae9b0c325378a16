package session

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/core"
	"argo/internal/pass"
	"argo/internal/sched"
	"argo/internal/transform"
	"argo/internal/usecases"
)

// goldenFingerprints pins ResultFingerprint for the 54 base
// configurations (3 use cases × 9 built-in platforms × 2 policies), one
// "usecase platform policy fingerprint" line each. Perfbench's
// expected.json pins the same values, but only this file is checked by
// go test. A change that is meant to move results replaces the file
// with the table the failing test logs.
const goldenFingerprints = "testdata/result_fingerprints.txt"

var goldenPolicies = []struct {
	name string
	pol  sched.Policy
}{{"aware", sched.ListContentionAware}, {"oblivious", sched.ListOblivious}}

// readGolden maps the three-word key of every line of a golden table
// to the rest of the line (a fingerprint, or an error text).
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		w := strings.SplitN(line, " ", 4)
		if len(w) != 4 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[strings.Join(w[:3], " ")] = w[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestResultFingerprintsGolden compiles every base configuration cache
// free, then three times on a private pass cache — the first compile
// sights every key, the second stores its snapshot and the third
// restores every cacheable pass — and checks the cache-free and the
// restoring compile against the golden table.
func TestResultFingerprintsGolden(t *testing.T) {
	want := readGolden(t, goldenFingerprints)
	ctx := context.Background()
	var table strings.Builder
	n := 0
	for _, uc := range usecases.All() {
		for _, plat := range adl.BuiltinNames() {
			for _, p := range goldenPolicies {
				key := fmt.Sprintf("%s %s %s", uc.Name, plat, p.name)
				n++
				opt := core.DefaultOptions(uc.Entry, uc.Args, adl.Builtin(plat))
				opt.Policy = p.pol
				cold := opt
				cold.Passes.NoCache = true
				art, err := core.CompileSourceContext(ctx, uc.Source, cold)
				if err != nil {
					t.Fatalf("%s: cache-free compile: %v", key, err)
				}
				got := ResultFingerprint(art)
				fmt.Fprintf(&table, "%s %s\n", key, got)
				if got != want[key] {
					t.Errorf("%s: cache-free fingerprint %s, golden %q", key, got, want[key])
				}

				warm := opt
				warm.Passes.Cache = pass.NewCache(0)
				for round := 0; round < 3; round++ {
					art, err = core.CompileSourceContext(ctx, uc.Source, warm)
					if err != nil {
						t.Fatalf("%s: cached compile %d: %v", key, round, err)
					}
				}
				for _, ag := range art.PassTrace.Aggregate() {
					if ag.CacheMisses != 0 {
						t.Errorf("%s: third compile missed the cache on pass %q", key, ag.Pass)
					}
				}
				if warm := ResultFingerprint(art); warm != got {
					t.Errorf("%s: warm fingerprint %s != cache-free %s", key, warm, got)
				}
			}
		}
	}
	if len(want) != n {
		t.Errorf("%s holds %d configurations, want %d", goldenFingerprints, len(want), n)
	}
	if t.Failed() {
		t.Logf("table computed by this build:\n%s", table.String())
	}
}

// goldenLadder pins ResultFingerprint, or the error text, of a
// cache-free compile for every rung of the optimizer ladder plus the
// configurations no rung selects (fusion, tiling, merging to two
// tasks), for 3 use cases × 9 built-in platforms: one "usecase platform
// candidate result" line each. The 54 base configurations above run
// only core.DefaultOptions' plan; this table adds every other plan the
// optimizer tries, unrolling, fusion, tiling and coarsening.
const goldenLadder = "testdata/ladder_fingerprints.txt"

// ladderCandidates is DefaultCandidates plus a fusion and 2×3 tiling
// plan and the chunked+spm rung coarsened to at most two tasks.
func ladderCandidates(cores int) []core.Candidate {
	cands := core.DefaultCandidates(cores)
	fuseTile := transform.DefaultOptions()
	fuseTile.Fusion = true
	fuseTile.TileI, fuseTile.TileJ = 2, 3
	cands = append(cands, core.Candidate{Name: "fusion+tile2x3", Transforms: fuseTile, Policy: sched.ListContentionAware})
	for _, c := range cands {
		if c.Name == "chunked+spm" {
			c.Name, c.MaxTasks = "chunked+spm+max2", 2
			cands = append(cands, c)
			break
		}
	}
	return cands
}

// TestLadderFingerprintsGolden compiles every ladder configuration
// cache free and checks the result against the golden table. Each capped
// rung (MaxTasks > 0) that compiles is also compiled three times on a
// private pass cache: the second compile stores every cacheable pass and
// the third restores them, so the coarsened graph travels through a
// snapshot, and must match the table too.
func TestLadderFingerprintsGolden(t *testing.T) {
	want := readGolden(t, goldenLadder)
	ctx := context.Background()
	var table strings.Builder
	n := 0
	for _, uc := range usecases.All() {
		for _, plat := range adl.BuiltinNames() {
			p := adl.Builtin(plat)
			for _, c := range ladderCandidates(p.NumCores()) {
				key := fmt.Sprintf("%s %s %s", uc.Name, plat, c.Name)
				n++
				opt := core.DefaultOptions(uc.Entry, uc.Args, p)
				opt.Transforms, opt.AutoSPM, opt.Policy, opt.MaxTasks = c.Transforms, c.AutoSPM, c.Policy, c.MaxTasks
				opt.Passes.NoCache = true
				var got string
				art, err := core.CompileSourceContext(ctx, uc.Source, opt)
				if err != nil {
					got = "error: " + err.Error()
				} else {
					got = ResultFingerprint(art)
				}
				fmt.Fprintf(&table, "%s %s\n", key, got)
				if got != want[key] {
					t.Errorf("%s: %s, golden %q", key, got, want[key])
				}
				if err != nil || c.MaxTasks == 0 {
					continue
				}
				opt.Passes.NoCache, opt.Passes.Cache = false, pass.NewCache(0)
				for round := 0; round < 3; round++ {
					if art, err = core.CompileSourceContext(ctx, uc.Source, opt); err != nil {
						t.Fatalf("%s: cached compile %d: %v", key, round, err)
					}
				}
				for _, ag := range art.PassTrace.Aggregate() {
					if ag.CacheMisses != 0 {
						t.Errorf("%s: third compile missed the cache on pass %q", key, ag.Pass)
					}
				}
				if warm := ResultFingerprint(art); warm != want[key] {
					t.Errorf("%s: warm fingerprint %s, golden %q", key, warm, want[key])
				}
			}
		}
	}
	if len(want) != n {
		t.Errorf("%s holds %d configurations, want %d", goldenLadder, len(want), n)
	}
	if t.Failed() {
		t.Logf("table computed by this build:\n%s", table.String())
	}
}
