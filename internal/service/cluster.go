package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"argo/internal/conc"
	"argo/pkg/argo"
)

// This file is the coordinator side of the sharded analysis cluster
// (internal/cluster): compile keys are consistent-hash routed to the
// owning replica with a local forwarded-response cache tier in front,
// /v1/optimize fans whole optimizer-ladder candidates out to remote
// candidate workers (/v1/candidate) and reduces exactly like the
// in-process ladder, and GET /v1/cluster + POST /v1/cluster/members
// expose and change the topology. Sessions and simulation stay local:
// both need live artifacts in this process's memory, not a wire
// summary, so sharding them would buy nothing.

// forwarded is what the coordinator caches (under "fwd:"-prefixed keys,
// a distinct namespace from the local *compileResult entries) for a
// response served by a replica.
type forwarded struct {
	status  int
	outcome string
	replica string
	body    []byte
}

// writeForwarded relays a replica's response: its status and body
// verbatim, the cache outcome, and the serving replica in
// X-Argo-Replica.
func (s *Server) writeForwarded(w http.ResponseWriter, f *forwarded) {
	if f.status >= 400 {
		s.metrics.Error(fmt.Sprintf("%dxx", f.status/100))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Argo-Cache", f.outcome)
	w.Header().Set("X-Argo-Replica", f.replica)
	w.WriteHeader(f.status)
	_, _ = w.Write(f.body)
}

// clusterRoute serves one request kind for job through the coordinator:
// the local forwarded-response tier first, then a forward to the replica
// owning the job's content address. The error return means the job has
// no key (its source fails to parse) or every replica failed — the
// caller falls back to local execution, which answers the parse error or
// serves the request, so it is never dropped.
func (s *Server) clusterRoute(ctx context.Context, kind, path string, req any, job *compileJob) (*forwarded, error) {
	key, err := job.key(kind)
	if err != nil {
		return nil, err
	}
	fkey := "fwd:" + key
	if v, ok := s.cache.Get(fkey); ok {
		f := *v.(*forwarded)
		f.outcome = OutcomeHit.String()
		s.cluster.CountLocalHit()
		return &f, nil
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode forward body: %w", err)
	}
	res, err := s.cluster.Forward(ctx, key, path, body)
	if err != nil {
		return nil, err
	}
	f := &forwarded{status: res.Status, outcome: res.Outcome, replica: res.Replica, body: res.Body}
	if f.status == http.StatusOK {
		s.cache.Put(fkey, f)
	}
	return f, nil
}

// --- remote candidate workers ----------------------------------------------

// CandidateJSON is the wire form of one optimizer-ladder candidate. The
// scheduler policy travels as its enum value (stable on both sides);
// transform options marshal by field name.
type CandidateJSON struct {
	Name       string                `json:"name"`
	Transforms argo.TransformOptions `json:"transforms"`
	AutoSPM    bool                  `json:"auto_spm,omitempty"`
	Policy     int                   `json:"policy"`
	MaxTasks   int                   `json:"max_tasks,omitempty"`
}

// FromCandidate converts a ladder candidate to its wire form.
func FromCandidate(c argo.Candidate) CandidateJSON {
	return CandidateJSON{
		Name:       c.Name,
		Transforms: c.Transforms,
		AutoSPM:    c.AutoSPM,
		Policy:     int(c.Policy),
		MaxTasks:   c.MaxTasks,
	}
}

// ToCandidate converts the wire form back to a ladder candidate.
func (c CandidateJSON) ToCandidate() (argo.Candidate, error) {
	if c.Policy < int(argo.PolicyOblivious) || c.Policy > int(argo.PolicyBranchBound) {
		return argo.Candidate{}, fmt.Errorf("candidate policy %d out of range", c.Policy)
	}
	return argo.Candidate{
		Name:       c.Name,
		Transforms: c.Transforms,
		AutoSPM:    c.AutoSPM,
		Policy:     argo.Policy(c.Policy),
		MaxTasks:   c.MaxTasks,
	}, nil
}

// CandidateRequest is the body of POST /v1/candidate: a compile request
// plus the ladder candidate to evaluate on it.
type CandidateRequest struct {
	CompileRequest
	Candidate CandidateJSON `json:"candidate"`
}

// candidateKey is the content address of one candidate evaluation. The
// base job's policy/max-tasks are excluded — the candidate overrides
// them — while the candidate itself is hashed in.
func (s *Server) candidateKey(job *compileJob, cj CandidateJSON) (string, error) {
	m := job.parsed()
	if m.err != nil {
		return "", m.err
	}
	return HashKey("argo/v1", "candidate", m.address, job.entry, job.wireArgs(),
		job.canonicalADL, cj, job.wcetEngine), nil
}

// cachedCandidate evaluates one ladder candidate on this process through
// cache, singleflight, and the worker pool. It is both the replica side
// of POST /v1/candidate and the coordinator's local fallback when a
// remote worker is unreachable.
func (s *Server) cachedCandidate(ctx context.Context, job *compileJob, cj CandidateJSON, cand argo.Candidate) (*CompileSummary, Outcome, error) {
	key, err := s.candidateKey(job, cj)
	if err != nil {
		return nil, OutcomeMiss, err
	}
	cjob := *job
	cjob.candidate = &cand
	val, outcome, err := s.do(ctx, job, key, func() (any, error) {
		if err := s.pool.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.pool.Release()
		t0 := time.Now()
		art, err := s.compile(ctx, &cjob)
		s.metrics.Observe("candidate", time.Since(t0))
		if err != nil {
			return nil, err
		}
		return Summarize(job.usecaseName(), job.period(), art), nil
	})
	if err != nil {
		return nil, outcome, err
	}
	return val.(*CompileSummary), outcome, nil
}

// handleCandidate is the replica side of the remote candidate worker
// seam: it compiles one optimizer-ladder candidate and returns its
// summary (fingerprint included), bit-identical to the in-process
// ladder's evaluation of the same candidate.
func (s *Server) handleCandidate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("candidate")
	var req CandidateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	job, err := s.resolve(&req.CompileRequest)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	cand, err := req.Candidate.ToCandidate()
	if err != nil {
		s.writeErr(w, badRequest("%v", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req.CompileRequest))
	defer cancel()
	sum, outcome, err := s.cachedCandidate(ctx, job, req.Candidate, cand)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, outcome, sum)
}

// --- distributed optimize ---------------------------------------------------

// candOutcome is one candidate's evaluation result during a distributed
// optimize: a summary on success, the deterministic pipeline error
// message on a failed candidate, or a fatal transient error (replica
// shed, timeout) that aborts the whole request rather than corrupting
// the deterministic history.
type candOutcome struct {
	sum    *CompileSummary
	errMsg string
	fatal  error
}

// distributedOptimize fans the default candidate ladder out to the
// replica set over /v1/candidate and reduces the outcomes in candidate
// index order with the exact comparison core.OptimizeContext uses
// (strict <, ties to the lowest index, best-so-far -1 until the first
// success) — so the response is bit-identical to the in-process ladder
// at any replica count, any per-replica width, and under replica
// failure with local fallback.
func (s *Server) distributedOptimize(ctx context.Context, req *CompileRequest, job *compileJob) (*OptimizeResponse, Outcome, error) {
	key, err := job.key("optimize")
	if err != nil {
		return nil, OutcomeMiss, err
	}
	val, outcome, err := retryTransient(ctx, s.metrics, func() (any, Outcome, error) {
		return s.cache.Do(ctx, "dopt:"+key, func() (any, error) {
			return s.runDistributedOptimize(ctx, req, job)
		})
	})
	if err != nil {
		return nil, outcome, err
	}
	return val.(*OptimizeResponse), outcome, nil
}

func (s *Server) runDistributedOptimize(ctx context.Context, req *CompileRequest, job *compileJob) (*OptimizeResponse, error) {
	t0 := time.Now()
	defer func() { s.metrics.Observe("optimize", time.Since(t0)) }()

	cands := argo.DefaultCandidates(job.plat.NumCores())
	members := s.cluster.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no replicas")
	}
	// Per-replica candidate slots: the request's parallelism when set,
	// else a modest pipeline depth of 2. The reduction is deterministic
	// at any width, so this only tunes wall-clock time.
	width := job.parallelism
	if width <= 0 {
		width = 2
	}
	widths := make([]int, len(members))
	for i := range widths {
		widths[i] = width
	}

	// The forwarded request carries everything but the candidate; the
	// candidate overrides policy/max-tasks on the replica exactly like
	// the in-process ladder overrides them per candidate.
	wire := *req
	wire.Parallelism = 0

	outs := make([]candOutcome, len(cands))
	if err := conc.ForEachOn(ctx, widths, len(cands), func(w, i int) {
		outs[i] = s.evalCandidate(ctx, members[w], &wire, job, cands[i])
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.fatal != nil {
			return nil, o.fatal
		}
	}

	resp := &OptimizeResponse{}
	var bestBound int64 = -1
	for i, c := range cands {
		it := IterationJSON{Iteration: i + 1, Candidate: c.Name, Error: outs[i].errMsg}
		if outs[i].sum != nil {
			it.Bound = outs[i].sum.TotalBound
			if bestBound < 0 || it.Bound < bestBound {
				bestBound = it.Bound
				resp.Best = outs[i].sum
			}
		}
		it.BestSoFar = bestBound
		resp.History = append(resp.History, it)
	}
	if resp.Best == nil {
		// The in-process ladder's exact wording (core.OptimizeContext).
		return nil, fmt.Errorf("core: no candidate compiled successfully")
	}
	return resp, nil
}

// evalCandidate evaluates one ladder candidate on member, falling back
// to local evaluation when the member is unreachable so no candidate is
// ever silently dropped.
func (s *Server) evalCandidate(ctx context.Context, member string, wire *CompileRequest, job *compileJob, cand argo.Candidate) candOutcome {
	cj := FromCandidate(cand)
	body, err := json.Marshal(&CandidateRequest{CompileRequest: *wire, Candidate: cj})
	if err != nil {
		return candOutcome{fatal: fmt.Errorf("cluster: encode candidate: %w", err)}
	}
	res, err := s.cluster.Call(ctx, member, "/v1/candidate", body)
	if err != nil {
		// Unreachable worker: evaluate locally. Transient local failures
		// (pool shed, deadline) abort the request instead of being
		// recorded as candidate failures — the history must only ever
		// contain deterministic pipeline errors.
		sum, _, lerr := s.cachedCandidate(ctx, job, cj, cand)
		if lerr != nil {
			if statusFor(lerr) == http.StatusUnprocessableEntity {
				return candOutcome{errMsg: lerr.Error()}
			}
			return candOutcome{fatal: lerr}
		}
		return candOutcome{sum: sum}
	}
	switch res.Status {
	case http.StatusOK:
		var sum CompileSummary
		if err := json.Unmarshal(res.Body, &sum); err != nil {
			return candOutcome{fatal: fmt.Errorf("cluster: %s: candidate reply: %w", member, err)}
		}
		return candOutcome{sum: &sum}
	case http.StatusUnprocessableEntity:
		// Deterministic pipeline rejection: this candidate fails the
		// same way everywhere, record it in the history.
		var er ErrorResponse
		if err := json.Unmarshal(res.Body, &er); err != nil || er.Error == "" {
			er.Error = fmt.Sprintf("candidate rejected: %.200s", res.Body)
		}
		return candOutcome{errMsg: er.Error}
	default:
		return candOutcome{fatal: fmt.Errorf("cluster: %s: candidate status %d: %.200s", member, res.Status, res.Body)}
	}
}

// --- topology ---------------------------------------------------------------

// MembersRequest is the body of POST /v1/cluster/members.
type MembersRequest struct {
	Members []string `json:"members"`
}

// handleClusterInfo reports the process's cluster role and, for a
// coordinator, its membership, per-replica health, and counters.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("cluster")
	if s.cluster == nil {
		s.writeJSON(w, OutcomeMiss, map[string]any{"mode": "single"})
		return
	}
	s.writeJSON(w, OutcomeMiss, map[string]any{
		"mode":    "coordinator",
		"members": s.cluster.Members(),
		"health":  s.cluster.Health(),
		"stats":   s.cluster.Stats(),
	})
}

// handleClusterMembers swaps the coordinator's member set (scale up or
// down); hot keys whose owner changed are warm-replicated to their new
// owner in the background and readiness reports 503 until that pass
// finishes.
func (s *Server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("cluster")
	if s.cluster == nil {
		s.writeErr(w, &httpError{status: http.StatusConflict,
			msg: "not a coordinator (start argod with -peers)"})
		return
	}
	var req MembersRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if len(req.Members) == 0 {
		s.writeErr(w, badRequest("members must be non-empty"))
		return
	}
	for i, m := range req.Members {
		if !strings.HasPrefix(m, "http://") && !strings.HasPrefix(m, "https://") {
			s.writeErr(w, badRequest("members[%d]: %q is not an http(s) URL", i, m))
			return
		}
	}
	s.cluster.SetMembers(req.Members)
	s.writeJSON(w, OutcomeMiss, map[string]any{
		"members":     s.cluster.Members(),
		"rebalancing": s.cluster.Rebalancing(),
	})
}
