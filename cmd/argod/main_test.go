package main

import (
	"bytes"
	"testing"
)

func parseCLI(t *testing.T, args ...string) (*config, int, string) {
	t.Helper()
	var errb bytes.Buffer
	cfg, code := parseFlags(args, &errb)
	return cfg, code, errb.String()
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, code, errb := parseCLI(t)
	if cfg == nil || code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	if cfg.addr != ":8321" {
		t.Errorf("addr = %q, want :8321", cfg.addr)
	}
	if cfg.service.Workers <= 0 || cfg.service.CacheEntries != 256 {
		t.Errorf("unexpected service config: %+v", cfg.service)
	}
}

func TestParseFlagsUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},           // flag misuse
		{"positional"},            // unexpected arguments
		{"-wcet-engine", "tree"},  // unknown WCET engine
		{"-workers", "0"},         // non-positive worker pool
		{"-timeout", "-1s"},       // non-positive budget
		{"-max-sessions", "0"},    // non-positive session cap
		{"-pass-cache-max", "-1"}, // negative cache bound
		{"-vm-cache-max", "0"},    // removed flag
	} {
		cfg, code, _ := parseCLI(t, args...)
		if cfg != nil || code != 2 {
			t.Errorf("args %v: cfg=%v exit %d, want nil, 2", args, cfg, code)
		}
	}
}

func TestParseFlagsWCETEngine(t *testing.T) {
	cfg, code, errb := parseCLI(t, "-wcet-engine", "both")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	if cfg.service.WCETEngine != "both" {
		t.Errorf("service.WCETEngine = %q, want both", cfg.service.WCETEngine)
	}
}

func TestParseFlagsClusterMode(t *testing.T) {
	cfg, code, errb := parseCLI(t,
		"-peers", " http://n1:8321, http://n2:8321/ ,",
		"-max-per-replica", "3", "-forward-timeout", "5s")
	if cfg == nil || code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb)
	}
	want := []string{"http://n1:8321", "http://n2:8321"}
	if len(cfg.service.Peers) != 2 || cfg.service.Peers[0] != want[0] || cfg.service.Peers[1] != want[1] {
		t.Errorf("peers = %v, want %v (trimmed, slash-stripped, empties dropped)", cfg.service.Peers, want)
	}
	if cfg.service.MaxPerReplica != 3 || cfg.service.ForwardTimeout.Seconds() != 5 {
		t.Errorf("cluster knobs: %+v", cfg.service)
	}
	// No peers means single mode.
	if cfg, code, _ = parseCLI(t); cfg == nil || code != 0 || cfg.service.Peers != nil {
		t.Errorf("default config has peers: %+v", cfg)
	}
}

func TestParseFlagsClusterUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-peers", "n1:8321"}, // not an http(s) URL
		{"-peers", " , ,"},    // no usable URLs
		{"-peers", "http://n1", "-max-per-replica", "-1"}, // negative bound
		{"-peers", "http://n1", "-forward-timeout", "0s"}, // non-positive budget
	} {
		cfg, code, _ := parseCLI(t, args...)
		if cfg != nil || code != 2 {
			t.Errorf("args %v: cfg=%v exit %d, want nil, 2", args, cfg, code)
		}
	}
}
