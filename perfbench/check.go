package main

// Output checks. Every reply is checked; a non-2xx reply, a transport
// error or a wrong output counts as one failed operation.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"argo/internal/service"
	"argo/pkg/argo"
)

// expectedJSON holds the expected outputs, written by -write-expected
// from the oracle paths: the cache-free compile and the tree-walking
// interpreter.
//
//go:embed expected.json
var expectedJSON []byte

type expected struct {
	Note string `json:"note"`
	// Configs maps "model/platform/policy" to its expected result.
	Configs map[string]expConfig `json:"configs"`
	// Makespans maps "model/platform/aware" to the makespans of seeds
	// 1..simRepeated.
	Makespans map[string][]int64 `json:"makespans"`
}

type expConfig struct {
	Fingerprint string `json:"fingerprint"`
	Bound       int64  `json:"bound"`
	Tasks       int    `json:"tasks"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if len(e.Configs) != len(baseConfigs) || len(e.Makespans) != len(pairs) {
		return nil, fmt.Errorf("expected.json holds %d configurations and %d makespan rows, want %d and %d",
			len(e.Configs), len(e.Makespans), len(baseConfigs), len(pairs))
	}
	return &e, nil
}

// result is one executed op.
type result struct {
	op      op
	status  int
	body    []byte
	err     error
	latency int64 // ns
}

type pendingEdit struct {
	cfg *sessionConfig
	fp  string
}

type checker struct {
	exp       *expected
	workload  string
	attempted int
	failed    int
	msgs      []string
	edits     []pendingEdit
}

func (c *checker) fail(r *result, format string, args ...any) {
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf("%s %s: ", r.op.kind, r.op.base)+fmt.Sprintf(format, args...))
	}
}

// check checks one reply. Session edits are only recorded: their
// fingerprints are compared with cold compiles in finish.
func (c *checker) check(r *result) {
	c.attempted++
	if r.err != nil {
		c.fail(r, "%v", r.err)
		return
	}
	if r.status < 200 || r.status > 299 {
		c.fail(r, "status %d: %.200s", r.status, r.body)
		return
	}
	want := c.exp.Configs[r.op.base]
	switch r.op.kind {
	case opCompile:
		var s service.CompileSummary
		if err := json.Unmarshal(r.body, &s); err != nil {
			c.fail(r, "decode: %v", err)
			return
		}
		if s.TotalBound != want.Bound || len(s.Tasks) != want.Tasks {
			c.fail(r, "bound %d with %d tasks, want %d with %d", s.TotalBound, len(s.Tasks), want.Bound, want.Tasks)
			return
		}
		// A compile-cold variant keeps its base's bound and task count
		// but not its fingerprint, which covers the perturbed literal.
		if c.workload != wCompileCold && s.Fingerprint != want.Fingerprint {
			c.fail(r, "fingerprint %.16s, want %.16s", s.Fingerprint, want.Fingerprint)
		}
	case opSimulate:
		var s service.SimulateResponse
		if err := json.Unmarshal(r.body, &s); err != nil {
			c.fail(r, "decode: %v", err)
			return
		}
		if s.Compile == nil || s.Compile.Fingerprint != want.Fingerprint {
			c.fail(r, "compile fingerprint differs from the expected one")
			return
		}
		if len(s.Runs) != len(r.op.seeds) {
			c.fail(r, "%d runs, want %d", len(s.Runs), len(r.op.seeds))
			return
		}
		for i, run := range s.Runs {
			seed := r.op.seeds[i]
			switch {
			case run.Seed != seed:
				c.fail(r, "run %d has seed %d, want %d", i, run.Seed, seed)
			case !run.WithinBound || run.Makespan > run.TotalBound:
				c.fail(r, "seed %d: makespan %d not within bound %d: %s", seed, run.Makespan, run.TotalBound, run.BoundError)
			case seed <= simRepeated && run.Makespan != c.exp.Makespans[r.op.base][seed-1]:
				c.fail(r, "seed %d: makespan %d, want %d", seed, run.Makespan, c.exp.Makespans[r.op.base][seed-1])
			default:
				continue
			}
			return
		}
	case opCreate, opEdit:
		var s service.SessionSummary
		if err := json.Unmarshal(r.body, &s); err != nil {
			c.fail(r, "decode: %v", err)
			return
		}
		if s.Session == "" || s.Compile == nil || s.Compile.Fingerprint != s.Fingerprint {
			c.fail(r, "malformed session summary")
			return
		}
		if r.op.kind == opCreate {
			if s.Fingerprint != want.Fingerprint {
				c.fail(r, "fingerprint %.16s, want %.16s", s.Fingerprint, want.Fingerprint)
			}
			return
		}
		c.edits = append(c.edits, pendingEdit{cfg: r.op.cfg, fp: s.Fingerprint})
	}
}

// finish compares every session edit's fingerprint with a cold,
// cache-free compile of the same configuration, one compile per
// distinct configuration, on two goroutines.
func (c *checker) finish() {
	keys := map[string]int{}
	var cfgs []*sessionConfig
	for _, e := range c.edits {
		k := e.cfg.key()
		if _, ok := keys[k]; !ok {
			keys[k] = len(cfgs)
			cfgs = append(cfgs, e.cfg)
		}
	}
	fps := make([]string, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cfgs); i += workers {
				fps[i], errs[i] = cfgs[i].coldFingerprint()
			}
		}(w)
	}
	wg.Wait()
	for _, e := range c.edits {
		i := keys[e.cfg.key()]
		r := &result{op: op{kind: opEdit, base: e.cfg.model + "/" + e.cfg.platform}}
		switch {
		case errs[i] != nil:
			c.fail(r, "cold compile: %v", errs[i])
		case fps[i] != e.fp:
			c.fail(r, "fingerprint %.16s, cold compile %.16s", e.fp, fps[i])
		}
	}
	c.edits = nil
}

// platformDesc is the session's platform after its set-param edits.
func (s *sessionConfig) platformDesc() *argo.PlatformDesc {
	p := argo.Platform(s.platform)
	if s.access != 0 {
		p.Shared.AccessCycles = s.access
	}
	if s.spm != 0 {
		for i := range p.Cores {
			p.Cores[i].SPM.SizeBytes = s.spm
		}
	}
	return p
}

// key identifies the configuration by what the analysis reads.
func (s *sessionConfig) key() string {
	canon, _ := argo.EncodePlatform(s.platformDesc())
	return fmt.Sprintf("%s|%d|%s|%s|%s", s.model, s.variant, s.policy, strings.Join(s.disabled, ","), canon)
}

// coldFingerprint compiles the configuration anew with the pass
// cache off.
func (s *sessionConfig) coldFingerprint() (string, error) {
	uc := useCase(s.model)
	opt := argo.DefaultOptions(uc.Entry, uc.Args, s.platformDesc())
	pol, err := service.ParsePolicy(s.policy)
	if err != nil {
		return "", err
	}
	opt.Policy = pol
	opt.Passes.Disable = s.disabled
	opt.Passes.NoCache = true
	art, err := argo.CompileSource(variantSource(s.model, s.variant), opt)
	if err != nil {
		return "", err
	}
	return argo.SessionResultFingerprint(art), nil
}
