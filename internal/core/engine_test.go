package core

import (
	"strings"
	"testing"

	"argo/internal/adl"
	"argo/internal/usecases"
	"argo/internal/wcet"
	"argo/internal/wcet/mc"
)

// TestParseSelection pins the selector grammar the CLI layers rely on:
// every listed selector resolves to its engines, and anything else fails
// with the text the tools print.
func TestParseSelection(t *testing.T) {
	want := map[string]wcet.Selection{
		"":     {Primary: wcet.IPETEngine, Spec: "ipet"},
		"ipet": {Primary: wcet.IPETEngine, Spec: "ipet"},
		"mc":   {Primary: mc.Default, Spec: "mc"},
		"both": {Primary: wcet.IPETEngine, Check: mc.Default, Spec: "both"},
	}
	for _, spec := range append(WCETEngines(), "") {
		sel, err := ParseWCETEngine(spec)
		if err != nil {
			t.Fatalf("ParseWCETEngine(%q): %v", spec, err)
		}
		if w, ok := want[spec]; !ok || sel != w {
			t.Fatalf("ParseWCETEngine(%q) = %+v, want %+v", spec, sel, w)
		}
	}
	_, err := ParseWCETEngine("x")
	if want := `wcet: unknown engine "x" (valid: [ipet mc both])`; err == nil || err.Error() != want {
		t.Fatalf("unknown selector: err %v, want %q", err, want)
	}
}

// TestWCETEngineModes pins the compilation-level engine contract over
// every use case:
//
//   - "both" produces bit-identical bounds to the default "ipet"
//     selection (IPET stays the primary engine; the exact engine only
//     cross-checks), so enabling the cross-check can never change what
//     ships.
//   - "mc" compiles successfully and its sequential bound never exceeds
//     the IPET one (the exact engine is at most as pessimistic on every
//     region).
func TestWCETEngineModes(t *testing.T) {
	plat := adl.Builtin("xentium4")
	for _, u := range usecases.All() {
		compile := func(engine string) *Artifacts {
			t.Helper()
			opt := DefaultOptions(u.Entry, u.Args, plat)
			opt.WCETEngine = engine
			art, err := CompileSource(u.Source, opt)
			if err != nil {
				t.Fatalf("%s engine %q: %v", u.Name, engine, err)
			}
			return art
		}
		ipet := compile("ipet")
		both := compile("both")
		if ipet.Bound() != both.Bound() || ipet.SequentialWCET != both.SequentialWCET ||
			ipet.System.Makespan != both.System.Makespan {
			t.Fatalf("%s: both-mode bounds diverge from ipet: bound %d/%d seq %d/%d sys %d/%d",
				u.Name, ipet.Bound(), both.Bound(), ipet.SequentialWCET, both.SequentialWCET,
				ipet.System.Makespan, both.System.Makespan)
		}
		for id, b := range ipet.System.TaskBound {
			if both.System.TaskBound[id] != b {
				t.Fatalf("%s task %d: both-mode bound %d != ipet %d", u.Name, id, both.System.TaskBound[id], b)
			}
		}
		mc := compile("mc")
		if mc.SequentialWCET > ipet.SequentialWCET {
			t.Fatalf("%s: mc sequential bound %d exceeds ipet %d", u.Name, mc.SequentialWCET, ipet.SequentialWCET)
		}
	}
}

// TestWCETEngineUnknownRejected: a bad Options.WCETEngine fails the
// compilation before any pass runs, naming the valid selectors.
func TestWCETEngineUnknownRejected(t *testing.T) {
	u := usecases.ByName("weaa")
	opt := DefaultOptions(u.Entry, u.Args, adl.Builtin("xentium2"))
	opt.WCETEngine = "bogus"
	_, err := CompileSource(u.Source, opt)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, want := range []string{"bogus", "ipet", "mc", "both"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}
