// Package pass is the explicit pass manager of the ARGO tool-chain: it
// models the compile/optimize pipeline as a sequence of named passes
// over a typed artifact store, with per-pass context-cancellation
// checks, per-pass wall-time instrumentation, and content-addressed
// pass-level result caching.
//
// The paper's cross-layer flow (Figure 1: model import →
// parallelization → multi-core WCET analysis → code generation)
// iterates in a feedback loop; making every stage an observable,
// reorderable, cacheable pass is what lets the iterative optimizer skip
// stages whose inputs did not change between candidates or feedback
// rounds, and what gives argocc/argod per-stage timing visibility.
//
// The package is pure mechanism: it knows nothing about the concrete
// artifact types. internal/core defines the actual pipeline (which
// passes exist, what they read and write, how their inputs are
// fingerprinted); internal/transform contributes the registry of
// predictability transformations.
package pass

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"time"
)

// Key is a typed handle into a Context's artifact store. Two keys with
// the same name address the same slot; the type parameter makes reads
// and writes statically typed at every use site.
type Key[T any] struct{ name string }

// NewKey declares a typed artifact slot.
func NewKey[T any](name string) Key[T] { return Key[T]{name: name} }

// Name returns the artifact slot's name.
func (k Key[T]) Name() string { return k.name }

// Context is the artifact store one pipeline execution threads through
// its passes, together with the execution's cancellation context and
// instrumentation trace. A Context is confined to one pipeline run and
// is not safe for concurrent use.
type Context struct {
	ctx  context.Context
	vals map[string]any

	// Round is the current feedback-loop round (0 for passes outside the
	// loop); the driver sets it, timings record it.
	Round int

	trace Trace
}

// NewContext returns an empty artifact store bound to ctx.
func NewContext(ctx context.Context) *Context {
	return &Context{ctx: ctx, vals: make(map[string]any, 16)}
}

// Ctx returns the execution's cancellation context.
func (c *Context) Ctx() context.Context { return c.ctx }

// Trace returns the instrumentation trace accumulated so far.
func (c *Context) Trace() *Trace { return &c.trace }

// SeedTrace prepends already-recorded timings (e.g. the shared
// front-end's) to the trace of this execution.
func (c *Context) SeedTrace(timings []Timing) {
	c.trace.Passes = append(append([]Timing(nil), timings...), c.trace.Passes...)
}

// Put stores an artifact.
func Put[T any](c *Context, k Key[T], v T) { c.vals[k.name] = v }

// Get reads an artifact; ok is false when the slot is empty.
func Get[T any](c *Context, k Key[T]) (v T, ok bool) {
	raw, ok := c.vals[k.name]
	if !ok {
		return v, false
	}
	v, ok = raw.(T)
	return v, ok
}

// Need reads an artifact that a pass's declared inputs guarantee is
// present; a missing or mistyped slot is a pipeline-construction bug
// and panics with the slot name.
func Need[T any](c *Context, k Key[T]) T {
	v, ok := Get(c, k)
	if !ok {
		panic(fmt.Sprintf("pass: required artifact %q missing or mistyped", k.name))
	}
	return v
}

// Pass is one named stage of a pipeline.
type Pass struct {
	// Name identifies the pass in errors ("pass \"schedule\": ..."),
	// metrics, traces, and the -passes listing.
	Name string
	// Input and Output name the artifact slots the pass reads and
	// writes (documentation for the -passes listing; Run uses typed
	// keys directly).
	Input, Output string
	// Run executes the pass against the artifact store.
	Run func(c *Context) error

	// Fingerprint content-addresses the pass's inputs; ok=false opts
	// this execution out of caching. Nil means the pass is never cached.
	Fingerprint func(c *Context) (fp []byte, ok bool)
	// Snapshot freezes the pass's outputs into an immutable cache value
	// (deep-copying anything the pipeline may later mutate).
	Snapshot func(c *Context) any
	// Restore installs a cached snapshot into the store (deep-copying
	// anything the pipeline may later mutate).
	Restore func(c *Context, snap any)

	// Dump renders the pass's primary output artifact (argocc
	// -dump-after); nil means no dump is available.
	Dump func(c *Context) string
}

// Cacheable reports whether the pass participates in pass-level caching.
func (p *Pass) Cacheable() bool {
	return p.Fingerprint != nil && p.Snapshot != nil && p.Restore != nil
}

// CacheOutcome records how the cache treated one pass execution.
type CacheOutcome int8

// Cache outcomes.
const (
	// CacheNone: the pass is not cacheable (or caching is disabled).
	CacheNone CacheOutcome = iota
	// CacheMiss: the pass ran; its result was stored if the cache
	// admitted it.
	CacheMiss
	// CacheHit: the pass was skipped and its result restored.
	CacheHit
)

// String returns "", "miss", or "hit".
func (o CacheOutcome) String() string {
	switch o {
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	}
	return ""
}

// Timing is the instrumentation record of one pass execution.
type Timing struct {
	// Pass is the pass name.
	Pass string
	// Round is the feedback-loop round the execution belonged to
	// (0 outside the loop).
	Round int
	// Wall is the execution's wall-clock duration (for a cache hit: the
	// restore cost).
	Wall time.Duration
	// Cache records the pass-cache outcome.
	Cache CacheOutcome
}

// Trace is the ordered instrumentation record of one pipeline
// execution; it is attached to core.Artifacts as PassTrace.
type Trace struct {
	Passes []Timing
}

// CacheCounts sums a trace's cache outcomes: skipped is the number of
// executions served by snapshot restore (the clean prefix/suffix an
// incremental re-analysis did not re-run), reran the number that
// actually executed (cache misses plus uncacheable passes). This is the
// per-edit dirty-suffix accounting interactive sessions report.
func (t *Trace) CacheCounts() (skipped, reran int) {
	if t == nil {
		return 0, 0
	}
	for _, tm := range t.Passes {
		if tm.Cache == CacheHit {
			skipped++
		} else {
			reran++
		}
	}
	return skipped, reran
}

// Aggregate is the per-pass rollup of a trace.
type Aggregate struct {
	Pass        string
	Runs        int
	Wall        time.Duration
	CacheHits   int
	CacheMisses int
}

// Aggregate rolls the trace up by pass name, preserving first-execution
// order (the pipeline order).
func (t *Trace) Aggregate() []Aggregate {
	if t == nil {
		return nil
	}
	idx := make(map[string]int, 16)
	var out []Aggregate
	for _, tm := range t.Passes {
		i, ok := idx[tm.Pass]
		if !ok {
			i = len(out)
			idx[tm.Pass] = i
			out = append(out, Aggregate{Pass: tm.Pass})
		}
		a := &out[i]
		a.Runs++
		a.Wall += tm.Wall
		switch tm.Cache {
		case CacheHit:
			a.CacheHits++
		case CacheMiss:
			a.CacheMisses++
		}
	}
	return out
}

// Process-wide pass observability, served by argod's /debug/vars:
// cumulative per-pass wall time and execution counts, plus pass-cache
// hit/miss counters.
var (
	passNS      = expvar.NewMap("argo_pass_ns")
	passRuns    = expvar.NewMap("argo_pass_runs")
	cacheHits   = expvar.NewInt("argo_pass_cache_hits")
	cacheMisses = expvar.NewInt("argo_pass_cache_misses")
)

// CacheCounters returns the cumulative process-wide pass-cache hit and
// miss counts (also exported as expvars argo_pass_cache_{hits,misses}).
func CacheCounters() (hits, misses int64) {
	return cacheHits.Value(), cacheMisses.Value()
}

// Runs returns the cumulative number of actual executions of the named
// pass (cache hits excluded), as exported per pass in argo_pass_runs.
// Acceptance tests use the delta across a compilation to prove a pass
// was served entirely from cache.
func Runs(name string) int64 {
	if v, ok := passRuns.Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// Manager executes passes: it checks cancellation at every pass
// boundary, serves cacheable passes from the content-addressed cache,
// records per-pass timings into the context's trace and the process
// expvars, and prefixes pass failures with the failing pass name.
type Manager struct {
	// Cache enables pass-level caching when non-nil.
	Cache *Cache
	// AfterPass, when set, observes every completed pass (argocc
	// -dump-after and tests hook here).
	AfterPass func(p *Pass, c *Context)
	// OnTiming, when set, observes every completed pass's timing record
	// as soon as it is appended to the trace. Interactive sessions hook
	// here to stream one event per completed pass.
	OnTiming func(tm Timing)
}

// Run executes the passes in order against c. It returns ctx.Err()
// unwrapped as soon as the context is cancelled — at most the pass in
// flight completes, nothing after it starts — and wraps any pass
// failure as `pass "<name>": <err>`.
func (m *Manager) Run(c *Context, passes ...*Pass) error {
	for _, p := range passes {
		if err := m.runOne(c, p); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) runOne(c *Context, p *Pass) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	tm := Timing{Pass: p.Name, Round: c.Round}
	start := time.Now()
	if err := m.execute(c, p, &tm); err != nil {
		// Cancellation surfacing from inside a pass propagates as the
		// plain context error, not as a pass failure.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return fmt.Errorf("pass %q: %w", p.Name, err)
	}
	tm.Wall = time.Since(start)
	passNS.Add(p.Name, tm.Wall.Nanoseconds())
	// argo_pass_runs counts actual executions only: a cache hit restores
	// a snapshot without running the pass, and the warm-path contract
	// ("a second identical compile reruns zero structural passes") is
	// asserted against exactly this counter. Hits are visible separately
	// as argo_pass_cache_hits.
	if tm.Cache != CacheHit {
		passRuns.Add(p.Name, 1)
	}
	c.trace.Passes = append(c.trace.Passes, tm)
	if m.OnTiming != nil {
		m.OnTiming(tm)
	}
	// A cancellation that arrived while the pass ran aborts here, one
	// pass boundary after the cancel, before any later pass starts.
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if m.AfterPass != nil {
		m.AfterPass(p, c)
	}
	return c.ctx.Err()
}

// execute runs one pass through the cache (when eligible).
func (m *Manager) execute(c *Context, p *Pass, tm *Timing) error {
	if m.Cache == nil || !p.Cacheable() {
		return p.Run(c)
	}
	fp, ok := p.Fingerprint(c)
	if !ok {
		return p.Run(c)
	}
	key := cacheAddress(p.Name, fp)
	if snap, hit := m.Cache.get(key); hit {
		p.Restore(c, snap)
		tm.Cache = CacheHit
		cacheHits.Add(1)
		return nil
	}
	if err := p.Run(c); err != nil {
		return err
	}
	// Admission comes before the freeze: a key's first sighting costs
	// no snapshot at all. A nil snapshot means the result cannot be
	// frozen safely; the pass still ran, the result just isn't stored.
	if m.Cache.admit(key) {
		if snap := p.Snapshot(c); snap != nil {
			m.Cache.put(key, snap)
		}
	}
	tm.Cache = CacheMiss
	cacheMisses.Add(1)
	return nil
}

// Desc describes one pass of a registered pipeline (the argocc -passes
// listing and the DESIGN.md pass table).
type Desc struct {
	Name   string
	Input  string
	Output string
	// Cacheable reports pass-level caching eligibility.
	Cacheable bool
	// Loop marks passes that run once per placement/analysis feedback
	// round.
	Loop bool
}

// Describe renders a pass as a Desc.
func (p *Pass) Describe(loop bool) Desc {
	return Desc{Name: p.Name, Input: p.Input, Output: p.Output, Cacheable: p.Cacheable(), Loop: loop}
}

// FormatDescs renders a pipeline description as the fixed-width table
// `argocc -passes` (and `make passes`) prints.
func FormatDescs(ds []Desc) string {
	nameW, inW, outW := len("pass"), len("input"), len("output")
	for _, d := range ds {
		nameW = max(nameW, len(d.Name))
		inW = max(inW, len(d.Input))
		outW = max(outW, len(d.Output))
	}
	out := fmt.Sprintf("%-*s  %-*s  %-*s  %-9s  %s\n", nameW, "pass", inW, "input", outW, "output", "cacheable", "loop")
	for _, d := range ds {
		cacheable, loop := "-", "-"
		if d.Cacheable {
			cacheable = "yes"
		}
		if d.Loop {
			loop = "per-round"
		}
		out += fmt.Sprintf("%-*s  %-*s  %-*s  %-9s  %s\n", nameW, d.Name, inW, d.Input, outW, d.Output, cacheable, loop)
	}
	return out
}
