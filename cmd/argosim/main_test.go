package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},                       // -usecase missing
		{"-usecase", "nonesuch"}, // unknown use case
		{"-usecase", "polka", "-platform", "does-not-exist"}, // unknown platform
		{"-usecase", "polka", "-nosuchflag"},                 // flag misuse
		{"-usecase", "polka", "-exec-inflation", "-1"},       // invalid fault spec
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestSimulateSucceeds(t *testing.T) {
	code, out, errb := runCLI(t, "-usecase", "polka", "-platform", "xentium2", "-runs", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	for _, want := range []string{"Simulated runs", "worst observed", "tightness"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestOverBudgetInjectionExitsOne pins the soundness-violation path:
// inflation beyond the WCET headroom must surface violations and exit 1.
func TestOverBudgetInjectionExitsOne(t *testing.T) {
	code, _, errb := runCLI(t, "-usecase", "polka", "-platform", "xentium2", "-runs", "1",
		"-fault-seed", "7", "-exec-inflation", "1.5")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errb)
	}
	if !strings.Contains(errb, "SOUNDNESS VIOLATION") {
		t.Fatalf("missing violation banner:\n%s", errb)
	}
}
