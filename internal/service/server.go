package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"argo/internal/cluster"
	"argo/internal/memo"
	"argo/internal/sched"
	"argo/pkg/argo"
)

// Config tunes one analysis server.
type Config struct {
	// Workers bounds concurrent pipeline executions (default: NumCPU).
	Workers int
	// CacheEntries is the LRU capacity of the result cache (default
	// 256; <0 disables the bound).
	CacheEntries int
	// Timeout is the per-request pipeline budget (default 60s). It
	// covers queueing for a worker slot plus the pipeline run. Requests
	// may lower it per call via timeout_ms, never raise it.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies (default 4 MiB).
	MaxBodyBytes int64
	// MaxQueue bounds how many requests may wait for a worker slot
	// before new arrivals are shed with 429 + Retry-After (default
	// 4x Workers; <0 disables shedding).
	MaxQueue int
	// MaxSessions bounds live interactive sessions; the least recently
	// used session is evicted when a creation would exceed it (default
	// argo.DefaultMaxSessions).
	MaxSessions int
	// SessionTTL expires sessions idle longer than this (default
	// argo.DefaultSessionTTL).
	SessionTTL time.Duration
	// WCETEngine is the code-level WCET engine every compile uses:
	// "" or "ipet" (default), "mc", or "both" (IPET bounds with the
	// exact engine cross-checked on every region). Part of each job's
	// cache key — engines legitimately produce different bounds.
	WCETEngine string
	// Peers are replica base URLs. Non-empty puts the server in
	// coordinator mode: compile and optimize work is consistent-hash
	// sharded across the peers (see internal/cluster) while sessions and
	// simulation stay local.
	Peers []string
	// ForwardTimeout bounds each forwarded attempt in coordinator mode
	// (default 30s).
	ForwardTimeout time.Duration
	// MaxPerReplica is the coordinator's bounded-load fallback: a replica
	// with this many forwards in flight is skipped for the next one in
	// preference order (0: unbounded).
	MaxPerReplica int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.Workers
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0 // unbounded queue, no shedding
	}
	return c
}

// Server is the ARGO analysis service: the compile→schedule→WCET→
// simulate pipeline behind an HTTP/JSON API with caching, deduplication,
// admission control, and metrics.
type Server struct {
	cfg      Config
	cache    *Cache
	pool     *Pool
	metrics  *Metrics
	mux      *http.ServeMux
	sessions *argo.SessionManager

	// cluster is non-nil in coordinator mode: compile/optimize keys are
	// consistent-hash sharded across the replica set and misses forwarded
	// to the owning replica (see cluster.go in this package).
	cluster *cluster.Cluster

	// draining flips once shutdown begins: /readyz turns 503 so load
	// balancers stop routing, while /healthz stays 200 (the process is
	// alive and still finishing in-flight requests). drainCh closes at
	// the same moment so long-lived streams (SSE session edits) can
	// terminate with an explicit final event instead of blocking the
	// graceful shutdown until the grace budget expires.
	draining atomic.Bool
	drainCh  chan struct{}

	// compile runs one pipeline execution; tests may replace it to
	// count or delay executions.
	compile func(ctx context.Context, job *compileJob) (*argo.Artifacts, error)
	// sessionApply routes one session edit; tests may replace it to
	// block an edit mid-flight (drain-under-stream coverage).
	sessionApply func(ctx context.Context, id string, e argo.SessionEdit, aopt argo.SessionApplyOptions) (*argo.SessionEditResult, error)
}

// NewServer builds a server from cfg (zero values take defaults).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := NewCache(cfg.CacheEntries)
	pool := NewPool(cfg.Workers, cfg.MaxQueue)
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		pool:     pool,
		metrics:  NewMetrics(cache, pool, time.Now()),
		sessions: argo.NewSessionManager(cfg.MaxSessions, cfg.SessionTTL),
		drainCh:  make(chan struct{}),
	}
	s.compile = s.runCompile
	s.sessionApply = s.sessions.Apply
	if len(cfg.Peers) > 0 {
		s.cluster = cluster.New(cluster.Options{
			Peers:          cfg.Peers,
			ForwardTimeout: cfg.ForwardTimeout,
			MaxInflight:    cfg.MaxPerReplica,
		})
		s.metrics.SetCluster(func() any { return s.cluster.Stats() })
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/candidate", s.handleCandidate)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterInfo)
	s.mux.HandleFunc("POST /v1/cluster/members", s.handleClusterMembers)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/session", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/session/{id}/edit", s.handleSessionEdit)
	s.mux.HandleFunc("POST /v1/session/{id}/simulate", s.handleSessionSimulate)
	s.mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	s.mux.HandleFunc("GET /v1/usecases", s.handleUseCases)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cluster returns the coordinator state, or nil in single-process mode.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// Metrics exposes the server's metrics (an expvar.Var) so embedders can
// publish them into the process-global expvar registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// --- request resolution -----------------------------------------------------

// compileJob is a fully resolved, validated compile request.
type compileJob struct {
	usecase *argo.UseCase // nil for raw-source jobs
	source  string
	entry   string
	args    []argo.ArgSpec
	plat    *argo.PlatformDesc
	// canonicalADL is the platform re-encoded through the ADL codec, so
	// equivalent name- and inline-specified platforms key identically.
	canonicalADL string
	policy       sched.Policy
	maxTasks     int
	// parallelism bounds optimizer candidate evaluation. NOT part of the
	// cache key: optimization results are deterministic across
	// parallelism degrees.
	parallelism int
	// wcetEngine is the server-wide engine selection (Config.WCETEngine).
	// Part of the cache key: bounds differ between engines.
	wcetEngine string
	// candidate, when non-nil, overrides the transform/mapping knobs the
	// optimizer ladder varies — exactly the overrides OptimizeContext
	// applies per candidate, so a remote candidate worker compiles the
	// same configuration the in-process ladder would.
	candidate *argo.Candidate
}

// key is the job's content address: SHA-256 over the canonicalized
// request under a kind tag ("compile", "optimize", ...).
func (j *compileJob) key(kind string) string {
	args := make([]ArgSpecJSON, len(j.args))
	for i, a := range j.args {
		args[i] = FromArgSpec(a)
	}
	return HashKey("argo/v1", kind, j.source, j.entry, args,
		j.canonicalADL, j.policy.String(), j.maxTasks, j.wcetEngine)
}

func (j *compileJob) usecaseName() string {
	if j.usecase == nil {
		return ""
	}
	return j.usecase.Name
}

func (j *compileJob) period() int64 {
	if j.usecase == nil {
		return 0
	}
	return j.usecase.Period
}

// httpError carries a status code with a request-handling error.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// requestTimeout resolves a request's pipeline budget: the server
// default, lowered (never raised) by a positive timeout_ms.
func (s *Server) requestTimeout(req *CompileRequest) time.Duration {
	return s.clampTimeout(req.TimeoutMS)
}

// clampTimeout lowers (never raises) the server's pipeline budget by a
// positive per-request timeout in milliseconds.
func (s *Server) clampTimeout(ms int64) time.Duration {
	if ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < s.cfg.Timeout {
			return d
		}
	}
	return s.cfg.Timeout
}

// resolve validates a compile request into a runnable job.
func (s *Server) resolve(req *CompileRequest) (*compileJob, error) {
	if req.Parallelism < 0 {
		return nil, badRequest("parallelism must be >= 0")
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("timeout_ms must be >= 0")
	}
	j := &compileJob{maxTasks: req.MaxTasks, parallelism: req.Parallelism, wcetEngine: s.cfg.WCETEngine}
	switch {
	case req.UseCase != "" && req.Source != "":
		return nil, badRequest("set exactly one of usecase and source")
	case req.UseCase != "":
		uc := argo.UseCaseByName(req.UseCase)
		if uc == nil {
			return nil, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("unknown use case %q (see GET /v1/usecases)", req.UseCase)}
		}
		j.usecase = uc
		j.source, j.entry, j.args = uc.Source, uc.Entry, uc.Args
	case req.Source != "":
		if req.Entry == "" {
			return nil, badRequest("source compiles need entry")
		}
		j.source, j.entry = req.Source, req.Entry
		for i, a := range req.Args {
			spec, err := a.ToArgSpec()
			if err != nil {
				return nil, badRequest("args[%d]: %v", i, err)
			}
			j.args = append(j.args, spec)
		}
	default:
		return nil, badRequest("set one of usecase and source")
	}

	switch {
	case req.Platform != "" && len(req.PlatformADL) > 0:
		return nil, badRequest("set exactly one of platform and platform_adl")
	case len(req.PlatformADL) > 0:
		p, err := argo.DecodePlatform(req.PlatformADL)
		if err != nil {
			return nil, badRequest("platform_adl: %v", err)
		}
		j.plat = p
	default:
		name := req.Platform
		if name == "" {
			name = "xentium4"
		}
		p := argo.Platform(name)
		if p == nil {
			return nil, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("unknown platform %q (see GET /v1/platforms)", name)}
		}
		j.plat = p
	}
	canon, err := argo.EncodePlatform(j.plat)
	if err != nil {
		return nil, badRequest("platform: %v", err)
	}
	j.canonicalADL = string(canon)

	j.policy, err = ParsePolicy(req.Policy)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return j, nil
}

// options builds the compiler options for a job.
func (j *compileJob) options() argo.Options {
	opt := argo.DefaultOptions(j.entry, j.args, j.plat)
	opt.Policy = j.policy
	opt.MaxTasks = j.maxTasks
	opt.WCETEngine = j.wcetEngine
	if c := j.candidate; c != nil {
		// Mirror core.OptimizeContext's per-candidate overrides so the
		// result is bit-identical to the in-process ladder's evaluation.
		opt.Transforms = c.Transforms
		opt.AutoSPM = c.AutoSPM
		opt.Policy = c.Policy
		opt.MaxTasks = c.MaxTasks
	}
	return opt
}

// runCompile is the real pipeline execution (the default s.compile).
func (s *Server) runCompile(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
	return argo.CompileSourceContext(ctx, job.source, job.options())
}

// compileResult is what the cache stores for a compile key: the full
// artifacts (simulation needs them) plus the wire summary.
type compileResult struct {
	art *argo.Artifacts
	sum *CompileSummary
}

// cachedCompile serves a compile job through cache, singleflight, and
// the worker pool, retrying transient shared-fate failures (a leader's
// cancellation aborting a follower's attached computation) with backoff.
func (s *Server) cachedCompile(ctx context.Context, job *compileJob) (*compileResult, Outcome, error) {
	val, outcome, err := retryTransient(ctx, s.metrics, func() (any, Outcome, error) {
		return s.cache.Do(ctx, job.key("compile"), func() (any, error) {
			if err := s.pool.Acquire(ctx); err != nil {
				return nil, err
			}
			defer s.pool.Release()
			t0 := time.Now()
			art, err := s.compile(ctx, job)
			s.metrics.Observe("compile", time.Since(t0))
			if err != nil {
				return nil, err
			}
			return &compileResult{art: art, sum: Summarize(job.usecaseName(), job.period(), art)}, nil
		})
	})
	if err != nil {
		return nil, outcome, err
	}
	return val.(*compileResult), outcome, nil
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("compile")
	var req CompileRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	job, err := s.resolve(&req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req))
	defer cancel()
	if s.cluster != nil {
		if f, err := s.clusterRoute(ctx, "compile", "/v1/compile", &req, job); err == nil {
			s.writeForwarded(w, f)
			return
		}
		// Every replica failed: fall through to local execution so the
		// request is served, never dropped.
	}
	res, outcome, err := s.cachedCompile(ctx, job)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, outcome, res.sum)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("optimize")
	var req CompileRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	job, err := s.resolve(&req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req))
	defer cancel()
	if s.cluster != nil {
		resp, outcome, err := s.distributedOptimize(ctx, &req, job)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		s.writeJSON(w, outcome, resp)
		return
	}
	resp, outcome, err := s.optimizeLocal(ctx, job)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, outcome, resp)
}

// optimizeLocal runs the in-process optimizer ladder through cache,
// singleflight, and the worker pool (the single-process /v1/optimize
// path, and a batch cell's optimize op).
func (s *Server) optimizeLocal(ctx context.Context, job *compileJob) (*OptimizeResponse, Outcome, error) {
	val, outcome, err := retryTransient(ctx, s.metrics, func() (any, Outcome, error) {
		return s.cache.Do(ctx, job.key("optimize"), func() (any, error) {
			if err := s.pool.Acquire(ctx); err != nil {
				return nil, err
			}
			defer s.pool.Release()
			t0 := time.Now()
			opt := job.options()
			opt.Parallelism = job.parallelism
			res, err := argo.OptimizeSourceContext(ctx, job.source, opt, nil)
			s.metrics.Observe("optimize", time.Since(t0))
			if err != nil {
				return nil, err
			}
			return SummarizeOptimize(job.usecaseName(), job.period(), res), nil
		})
	})
	if err != nil {
		return nil, outcome, err
	}
	return val.(*OptimizeResponse), outcome, nil
}

// maxSimRuns bounds the number of simulated input variants per request.
const maxSimRuns = 100

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("simulate")
	var req SimulateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	job, err := s.resolve(&req.CompileRequest)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if job.usecase == nil {
		s.writeErr(w, badRequest("simulate needs a usecase (input generators)"))
		return
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		runs := req.Runs
		if runs <= 0 {
			runs = 1
		}
		for seed := int64(1); seed <= int64(runs); seed++ {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) > maxSimRuns {
		s.writeErr(w, badRequest("at most %d runs per request (got %d)", maxSimRuns, len(seeds)))
		return
	}
	var faults argo.FaultSpec
	if req.Faults != nil {
		faults = req.Faults.ToSpec()
		if err := faults.Validate(); err != nil {
			s.writeErr(w, badRequest("faults: %v", err))
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req.CompileRequest))
	defer cancel()
	// The compile goes through the shared cache (same key as
	// /v1/compile), so a prior compile of the same model is reused and
	// concurrent simulate requests dedup the pipeline run.
	res, outcome, err := s.cachedCompile(ctx, job)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	resp := &SimulateResponse{Compile: res.sum}
	t0 := time.Now()
	for _, seed := range seeds {
		var rep *argo.SimReport
		var err error
		injecting := req.Faults != nil && faults.Enabled()
		if injecting {
			// Re-seed per run so a sweep over input seeds also sweeps
			// fault patterns; the combination stays deterministic.
			spec := faults
			spec.Seed += seed
			rep, err = argo.SimulateFaultyContext(ctx, res.art, job.usecase.Inputs(seed), spec)
		} else {
			rep, err = argo.SimulateContext(ctx, res.art, job.usecase.Inputs(seed))
		}
		if err != nil {
			s.writeErr(w, fmt.Errorf("seed %d: %w", seed, err))
			return
		}
		run := SimRun{
			Seed:          seed,
			Makespan:      rep.Makespan,
			ExecSpan:      rep.ExecSpan,
			BusWaitCycles: rep.BusWaitCycles,
			TotalBound:    res.art.Bound(),
			WithinBound:   true,
		}
		if err := argo.CheckBounds(res.art, rep); err != nil {
			run.WithinBound = false
			run.BoundError = err.Error()
		}
		if injecting {
			st := rep.Faults
			run.Faults = &st
			run.Violations = argo.Violations(res.art, rep)
		}
		resp.Runs = append(resp.Runs, run)
	}
	s.metrics.Observe("simulate", time.Since(t0))
	s.writeJSON(w, outcome, resp)
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("platforms")
	names := argo.PlatformNames()
	sort.Strings(names)
	out := make([]PlatformInfo, 0, len(names))
	for _, name := range names {
		p := argo.Platform(name)
		info := PlatformInfo{Name: name, Cores: p.NumCores()}
		switch {
		case p.NoC != nil:
			info.Interconnect = fmt.Sprintf("noc:%dx%d", p.NoC.Width, p.NoC.Height)
		case p.Bus != nil:
			info.Interconnect = "bus:" + string(p.Bus.Arbitration)
		}
		out = append(out, info)
	}
	s.writeJSON(w, OutcomeMiss, out)
}

func (s *Server) handleUseCases(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("usecases")
	var out []UseCaseInfo
	for _, u := range argo.UseCases() {
		info := UseCaseInfo{
			Name:        u.Name,
			Description: u.Description,
			Entry:       u.Entry,
			Period:      u.Period,
		}
		for _, a := range u.Args {
			info.Args = append(info.Args, FromArgSpec(a))
		}
		out = append(out, info)
	}
	s.writeJSON(w, OutcomeMiss, out)
}

// handleHealthz is liveness: it stays 200 for the process's whole life,
// including the graceful-shutdown drain — restarting a pod because it is
// draining would defeat the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, OutcomeMiss, map[string]any{
		"status":   "ok",
		"version":  argo.Version,
		"draining": s.draining.Load(),
	})
}

// handleReadyz is readiness: 503 once draining so load balancers stop
// routing new requests while in-flight ones finish, and 503 while a
// coordinator is warm-replicating moved shards after a membership change
// (requests are still served — readiness only pauses new routing until
// the moved shards are warm).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	notReady := func(status string) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": status})
	}
	if s.draining.Load() {
		notReady("draining")
		return
	}
	if s.cluster != nil && s.cluster.Rebalancing() {
		notReady("rebalancing")
		return
	}
	s.writeJSON(w, OutcomeMiss, map[string]any{"status": "ready"})
}

// StartDraining marks the server not-ready (see handleReadyz) and
// closes the drain channel so active session streams flush a terminal
// event and return. It is idempotent and does not interrupt in-flight
// plain requests; ListenAndServe calls it when shutdown begins.
func (s *Server) StartDraining() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
}

// handleVars serves the process-global expvar registry plus this
// server's metrics under the "service" key, in the standard /debug/vars
// JSON shape.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	write := func(key, val string) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", key, val)
	}
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key == "service" {
			return // ours below, always current
		}
		write(kv.Key, kv.Value.String())
	})
	write("service", s.metrics.String())
	fmt.Fprintf(w, "\n}\n")
}

// --- plumbing ---------------------------------------------------------------

// decode reads a JSON request body strictly (unknown fields rejected).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

func (s *Server) writeJSON(w http.ResponseWriter, outcome Outcome, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Argo-Cache", outcome.String())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are already out; nothing to do but drop the conn.
		_ = err
	}
}

// statusFor maps a request-handling error to its HTTP status. Batch
// cells use it too, so a cell fails with the same status its request
// would have gotten stand-alone.
func statusFor(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, argo.ErrSessionNotFound):
		return http.StatusNotFound
	case IsShed(err):
		return http.StatusTooManyRequests
	case IsSaturated(err):
		return http.StatusServiceUnavailable
	case errors.Is(err, memo.ErrPanicked):
		// The computation this request attached to crashed in its leader.
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; 499-style, use 408 from the standard set.
		return http.StatusRequestTimeout
	}
	// Pipeline rejections (bad model, unschedulable, ...) are client
	// errors: the request was well-formed but unanalyzable.
	return http.StatusUnprocessableEntity
}

func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusTooManyRequests {
		// Queue at capacity: tell well-behaved clients when to retry.
		w.Header().Set("Retry-After", "1")
	}
	s.metrics.Error(fmt.Sprintf("%dxx", status/100))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// shuts down gracefully within grace. It is the daemon entry point.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Expire idle sessions in the background for the server's lifetime
	// (Create also sweeps inline, so the interval only bounds how long
	// an idle process pins expired sessions).
	sweepEvery := s.sessions.TTL() / 4
	if sweepEvery > time.Minute {
		sweepEvery = time.Minute
	}
	if sweepEvery < time.Second {
		sweepEvery = time.Second
	}
	go func() {
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sessions.Sweep()
			case <-ctx.Done():
				return
			}
		}
	}()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness before shutting the listener down: load balancers
	// polling /readyz stop routing while in-flight requests drain, and
	// /healthz keeps answering 200 the whole time.
	s.StartDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return srv.Close()
	}
	return nil
}
