package main

// Seeded request streams for the four workloads. A stream is a fixed
// list of set-up ops followed by an endless run of measured ops; the
// same workload and seed always give byte-identical request bodies.
// The server receives only these bodies, never the seed.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"argo/internal/service"
	"argo/pkg/argo"
)

// Workload names, as passed to --workload.
const (
	wCompileCold = "compile-cold"
	wCompileWarm = "compile-warm"
	wSimulate    = "simulate"
	wWhatif      = "whatif"
)

var workloads = []string{wCompileCold, wCompileWarm, wSimulate, wWhatif}

// Stream sizes. See README.md for why each has its value.
const (
	// coldSetupOps never-seen compiles fill the result cache (256
	// entries) and the pass cache (4,096 snapshots at ~17 per compile).
	coldSetupOps = 320
	// warmFillOps comment variants after the 54 base compiles fill the
	// result cache.
	warmFillOps = 256
	// simRepeated is the repeated seed set 1..simRepeated of simulate.
	simRepeated = 4
	// whatifSlots sessions are open at once; each takes whatifEdits
	// edits, then is deleted and replaced.
	whatifSlots = 4
	whatifEdits = 8
	// whatifSetupOps session ops run untimed after the base compiles.
	whatifSetupOps = 200
)

var (
	models   = []string{"egpws", "weaa", "polka"}
	policies = []string{"aware", "oblivious"}
)

// platforms lists the built-in platforms in a fixed order.
var platforms = func() []string {
	names := argo.PlatformNames()
	sort.Strings(names)
	return names
}()

func useCase(name string) *argo.UseCase { return useCases[name] }

// useCases holds the three models by name.
var useCases = func() map[string]*argo.UseCase {
	m := map[string]*argo.UseCase{}
	for _, uc := range argo.UseCases() {
		m[uc.Name] = uc
	}
	return m
}()

// opKind is the endpoint an op calls.
type opKind int

const (
	opCompile opKind = iota
	opSimulate
	opCreate
	opEdit
	opDelete
)

var opKindNames = [...]string{"compile", "simulate", "session-create", "session-edit", "session-delete"}

func (k opKind) String() string { return opKindNames[k] }

// op is one request of a stream plus what its reply is checked against.
type op struct {
	kind opKind
	// slot is the whatif session slot the op addresses.
	slot int
	// body is the JSON request body (nil for deletes).
	body []byte
	// base is the base configuration "model/platform/policy" whose
	// expected outputs the reply must keep.
	base string
	// seeds are the simulated input seeds.
	seeds []int64
	// cfg is a whatif session's configuration after the op.
	cfg *sessionConfig
}

// timed reports whether the op counts in latency and throughput.
// Session deletes keep the session count steady but are not measured.
func (o *op) timed() bool { return o.kind != opDelete }

// generator yields one workload's stream.
type generator interface {
	setup() []op
	next() op
}

func newGenerator(workload string, seed int64) (generator, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	switch workload {
	case wCompileCold:
		return newColdGen(rng), nil
	case wCompileWarm:
		return &warmGen{rng: rng, seed: seed, cyc: cycler{rng: rng, n: len(baseConfigs)}}, nil
	case wSimulate:
		return &simGen{rng: rng, cyc: cycler{rng: rng, n: len(pairs)}, used: map[int64]bool{}}, nil
	case wWhatif:
		return newWhatifGen(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (workloads: %s)", workload, strings.Join(workloads, ", "))
}

// cycler draws indices 0..n-1 in blocks: each block of n draws is a
// fresh seeded permutation, so every window holds each configuration
// equally often and seeds change only the order.
type cycler struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	i := c.perm[0]
	c.perm = c.perm[1:]
	return i
}

// config is one base configuration: a use-case model on a built-in
// platform under a scheduling policy.
type config struct{ model, platform, policy string }

func (c config) key() string { return c.model + "/" + c.platform + "/" + c.policy }

// baseConfigs lists the 54 base configurations.
var baseConfigs = func() []config {
	var out []config
	for _, m := range models {
		for _, p := range platforms {
			for _, pol := range policies {
				out = append(out, config{m, p, pol})
			}
		}
	}
	return out
}()

// pairs lists the 27 (model, platform) pairs under the default policy.
var pairs = func() []config {
	var out []config
	for _, m := range models {
		for _, p := range platforms {
			out = append(out, config{m, p, "aware"})
		}
	}
	return out
}()

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only request structs are marshalled
	}
	return b
}

// compileOp is a raw-source compile of src under c's platform and policy.
func compileOp(c config, src string) op {
	uc := useCase(c.model)
	req := service.CompileRequest{Source: src, Entry: uc.Entry, Platform: c.platform, Policy: c.policy}
	for _, a := range uc.Args {
		req.Args = append(req.Args, service.FromArgSpec(a))
	}
	return op{kind: opCompile, base: c.key(), body: mustMarshal(req)}
}

// --- compile-cold -------------------------------------------------------------

// literal is one decimal literal of a model's source.
type literal struct {
	start, end int
	val        float64
}

var decimalRE = regexp.MustCompile(`[0-9]+\.[0-9]+`)

// decimalLiterals finds the decimal literals outside comments. Loop
// bounds and indices are integers in scil, so none of these is one.
func decimalLiterals(src string) []literal {
	var out []literal
	off := 0
	for _, line := range strings.SplitAfter(src, "\n") {
		code := line
		if i := strings.Index(code, "//"); i >= 0 {
			code = code[:i]
		}
		for _, m := range decimalRE.FindAllStringIndex(code, -1) {
			if m[0] > 0 && isIdentByte(code[m[0]-1]) {
				continue
			}
			v, err := strconv.ParseFloat(code[m[0]:m[1]], 64)
			if err != nil {
				continue
			}
			out = append(out, literal{off + m[0], off + m[1], v})
		}
		off += len(line)
	}
	return out
}

func isIdentByte(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// perturb rewrites one literal of src to val*(1+n*2^-40). Distinct n
// give distinct float64 values (the step is far above one ulp), so
// every n yields a model text and an IR never seen before.
func perturb(src string, l literal, n int) string {
	v := l.val * (1 + float64(n)*0x1p-40)
	return src[:l.start] + strconv.FormatFloat(v, 'f', -1, 64) + src[l.end:]
}

type coldGen struct {
	rng  *rand.Rand
	cyc  cycler
	lits map[string][]literal
	n    int
}

func newColdGen(rng *rand.Rand) *coldGen {
	g := &coldGen{rng: rng, cyc: cycler{rng: rng, n: len(baseConfigs)}, lits: map[string][]literal{}}
	for _, m := range models {
		g.lits[m] = decimalLiterals(useCase(m).Source)
	}
	return g
}

func (g *coldGen) setup() []op {
	ops := make([]op, coldSetupOps)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func (g *coldGen) next() op {
	c := baseConfigs[g.cyc.next()]
	lits := g.lits[c.model]
	g.n++
	return compileOp(c, perturb(useCase(c.model).Source, lits[g.rng.IntN(len(lits))], g.n))
}

// --- compile-warm -------------------------------------------------------------

type warmGen struct {
	rng  *rand.Rand
	seed int64
	cyc  cycler
	n    int
}

func (g *warmGen) setup() []op {
	var ops []op
	for _, i := range g.rng.Perm(len(baseConfigs)) {
		c := baseConfigs[i]
		ops = append(ops, compileOp(c, useCase(c.model).Source))
	}
	for i := 0; i < warmFillOps; i++ {
		ops = append(ops, g.next())
	}
	return ops
}

// next recompiles a base configuration whose source differs from the
// base only in a leading comment.
func (g *warmGen) next() op {
	c := baseConfigs[g.cyc.next()]
	g.n++
	return compileOp(c, fmt.Sprintf("// revision %d.%d\n", g.seed, g.n)+useCase(c.model).Source)
}

// --- simulate -----------------------------------------------------------------

type simGen struct {
	rng  *rand.Rand
	cyc  cycler
	used map[int64]bool
}

func simulateOp(c config, seeds []int64) op {
	req := service.SimulateRequest{CompileRequest: service.CompileRequest{UseCase: c.model, Platform: c.platform}, Seeds: seeds}
	return op{kind: opSimulate, base: c.key(), seeds: seeds, body: mustMarshal(req)}
}

// setup compiles every pair and simulates its repeated seeds twice: the
// variant memo admits an input on its second sighting.
func (g *simGen) setup() []op {
	repeated := make([]int64, simRepeated)
	for i := range repeated {
		repeated[i] = int64(i + 1)
	}
	var ops []op
	for _, i := range g.rng.Perm(len(pairs)) {
		c := pairs[i]
		ops = append(ops, simulateOp(c, repeated), simulateOp(c, repeated))
	}
	return ops
}

// next simulates one repeated seed and one never-used fresh seed.
func (g *simGen) next() op {
	c := pairs[g.cyc.next()]
	r := 1 + g.rng.Int64N(simRepeated)
	f := g.fresh()
	return simulateOp(c, []int64{r, f})
}

func (g *simGen) fresh() int64 {
	for {
		f := simRepeated + 1 + g.rng.Int64N(1<<40)
		if !g.used[f] {
			g.used[f] = true
			return f
		}
	}
}

// --- whatif -------------------------------------------------------------------

// Value sets of the whatif edits. Small sets make sessions revisit
// configurations (session memo) as well as reach new ones.
var (
	accessCycles = []int{12, 18, 24}
	spmSizes     = []int{16 << 10, 64 << 10}
	toggled      = []string{"hoist", "chunk"}
)

// replaceFuncs names, per model, the function a replace-func edit swaps
// and the literal whose value its variants change. Variant 0 is the
// base function.
var replaceFuncs = map[string]struct {
	fn, lit string
	values  []string
}{
	"egpws": {"egpws_sweep", "0.15", []string{"0.15", "0.12", "0.18"}},
	"weaa":  {"weaa_hazard", "0.25", []string{"0.25", "0.2", "0.3"}},
	"polka": {"polka_classify", "0.18", []string{"0.18", "0.15", "0.21"}},
}

// funcText returns the definition of fn in src.
func funcText(src, fn string) (start, end int, err error) {
	i := strings.Index(src, " "+fn+"(")
	if i < 0 {
		return 0, 0, fmt.Errorf("no function %s", fn)
	}
	start = strings.LastIndex(src[:i], "function ")
	j := strings.Index(src[i:], "endfunction")
	if start < 0 || j < 0 {
		return 0, 0, fmt.Errorf("no definition of %s", fn)
	}
	return start, i + j + len("endfunction"), nil
}

// variantFunc is the text of model's replace-func variant v.
func variantFunc(model string, v int) string {
	rf := replaceFuncs[model]
	src := useCase(model).Source
	s, e, err := funcText(src, rf.fn)
	if err != nil {
		panic(err) // the table above names functions of the shipped models
	}
	return strings.Replace(src[s:e], rf.lit, rf.values[v], 1)
}

// variantSource is model's source with its replace-func variant v.
func variantSource(model string, v int) string {
	src := useCase(model).Source
	s, e, _ := funcText(src, replaceFuncs[model].fn)
	return src[:s] + variantFunc(model, v) + src[e:]
}

// sessionConfig is the analysis state of a whatif session.
type sessionConfig struct {
	model, platform string
	// access and spm are set-param values (0: the platform's own).
	access, spm int
	policy      string
	// disabled is the sorted list of disabled transforms.
	disabled []string
	// variant is the replace-func variant (0: the base function).
	variant int
}

type slotState struct {
	live  bool
	edits int
	cfg   sessionConfig
}

type whatifGen struct {
	rng   *rand.Rand
	slots [whatifSlots]slotState
	order []int
	// created counts session creations.
	created int
}

func newWhatifGen(rng *rand.Rand) *whatifGen { return &whatifGen{rng: rng} }

// setup compiles every base configuration, so session creations restore
// from the process-wide pass cache as they would behind a busy server,
// then runs the first session ops untimed.
func (g *whatifGen) setup() []op {
	var ops []op
	for _, i := range g.rng.Perm(len(baseConfigs)) {
		c := baseConfigs[i]
		ops = append(ops, compileOp(c, useCase(c.model).Source))
	}
	for i := 0; i < whatifSetupOps; i++ {
		ops = append(ops, g.next())
	}
	return ops
}

// next serves the slots in seeded round-robin: each round visits every
// slot once in a fresh seeded order.
func (g *whatifGen) next() op {
	if len(g.order) == 0 {
		g.order = g.rng.Perm(whatifSlots)
	}
	slot := g.order[0]
	g.order = g.order[1:]
	st := &g.slots[slot]
	switch {
	case !st.live:
		// Sessions take the pairs in one fixed rotation that alternates
		// models, so the open sessions' mix, and with it argod's memory,
		// does not depend on the seed; the seed drives the edits.
		i := g.created % len(pairs)
		g.created++
		c := pairs[(i%len(models))*len(platforms)+i/len(models)]
		*st = slotState{live: true, cfg: sessionConfig{model: c.model, platform: c.platform, policy: "aware"}}
		req := service.SessionCreateRequest{CompileRequest: service.CompileRequest{UseCase: c.model, Platform: c.platform}}
		cfg := st.cfg
		return op{kind: opCreate, slot: slot, base: c.key(), cfg: &cfg, body: mustMarshal(req)}
	case st.edits == whatifEdits:
		st.live = false
		return op{kind: opDelete, slot: slot}
	}
	st.edits++
	req := g.edit(&st.cfg)
	cfg := st.cfg
	cfg.disabled = append([]string(nil), st.cfg.disabled...)
	return op{kind: opEdit, slot: slot, cfg: &cfg, body: mustMarshal(req)}
}

// edit draws one edit and applies it to cfg.
func (g *whatifGen) edit(cfg *sessionConfig) service.SessionEditRequest {
	switch k := g.rng.IntN(100); {
	case k < 25:
		cfg.access = accessCycles[g.rng.IntN(len(accessCycles))]
		return service.SessionEditRequest{Op: argo.SessionOpSetParam, Param: "shared.access_cycles", Value: float64(cfg.access)}
	case k < 45:
		cfg.spm = spmSizes[g.rng.IntN(len(spmSizes))]
		return service.SessionEditRequest{Op: argo.SessionOpSetParam, Param: "core.spm.size_bytes", Value: float64(cfg.spm)}
	case k < 65:
		cfg.policy = policies[g.rng.IntN(len(policies))]
		return service.SessionEditRequest{Op: argo.SessionOpSetPolicy, Policy: cfg.policy}
	case k < 90:
		t := toggled[g.rng.IntN(len(toggled))]
		disable := g.rng.IntN(2) == 0
		var out []string
		for _, d := range cfg.disabled {
			if d != t {
				out = append(out, d)
			}
		}
		if disable {
			out = append(out, t)
			sort.Strings(out)
		}
		cfg.disabled = out
		return service.SessionEditRequest{Op: argo.SessionOpToggleTransform, Transform: t, Disable: disable}
	}
	rf := replaceFuncs[cfg.model]
	cfg.variant = g.rng.IntN(len(rf.values))
	return service.SessionEditRequest{Op: argo.SessionOpReplaceFunc, Func: rf.fn, Source: variantFunc(cfg.model, cfg.variant)}
}
