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

func readGoldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(goldenFingerprints))
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
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", goldenFingerprints, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestResultFingerprintsGolden compiles every base configuration cache
// free, then twice on a private pass cache — the second compile restores
// every cacheable pass — and checks all three against the golden table.
func TestResultFingerprintsGolden(t *testing.T) {
	want := readGoldenFingerprints(t)
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
				for round := 0; round < 2; round++ {
					art, err = core.CompileSourceContext(ctx, uc.Source, warm)
					if err != nil {
						t.Fatalf("%s: cached compile %d: %v", key, round, err)
					}
				}
				for _, ag := range art.PassTrace.Aggregate() {
					if ag.CacheMisses != 0 {
						t.Errorf("%s: second compile missed the cache on pass %q", key, ag.Pass)
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
