package service

import (
	"fmt"

	"argo/pkg/argo"
)

// SessionCreateRequest is the body of POST /v1/session: a compile
// request (the session's initial model and platform) plus an optional
// fault spec for /v1/session/{id}/simulate and an optional differential
// verification of the creating compile.
type SessionCreateRequest struct {
	CompileRequest
	// Faults is the session's fault-injection spec for simulate calls
	// (change it later with a set-faults edit).
	Faults *FaultSpecJSON `json:"faults,omitempty"`
	// Verify re-runs the creation as a cold cache-free compile and fails
	// unless both results are bit-identical.
	Verify bool `json:"verify,omitempty"`
}

// SessionEditRequest is the body of POST /v1/session/{id}/edit: one
// typed what-if operation. Exactly the fields of the selected op are
// read.
type SessionEditRequest struct {
	// Op is "replace-func", "set-param", "toggle-transform",
	// "set-policy", or "set-faults".
	Op string `json:"op"`

	// Func and Source select a replace-func edit: Source holds exactly
	// one function definition; Func (optional) names the function it must
	// replace.
	Func   string `json:"func,omitempty"`
	Source string `json:"source,omitempty"`

	// Param and Value select a set-param edit (ADL parameter path, e.g.
	// "shared.access_cycles").
	Param string  `json:"param,omitempty"`
	Value float64 `json:"value,omitempty"`

	// Transform and Disable select a toggle-transform edit.
	Transform string `json:"transform,omitempty"`
	Disable   bool   `json:"disable,omitempty"`

	// Policy selects a set-policy edit ("aware", "oblivious", "exact").
	Policy string `json:"policy,omitempty"`

	// Faults selects a set-faults edit (affects simulate only; no
	// re-analysis).
	Faults *FaultSpecJSON `json:"faults,omitempty"`

	// Verify runs the differential check: the incremental result must be
	// bit-identical to a cold compile of the edited source.
	Verify bool `json:"verify,omitempty"`
	// Stream switches the response to Server-Sent Events: one "pass"
	// event per completed pipeline pass, then "result" and "done" (or
	// "error"; "shutdown" if the server starts draining mid-edit).
	Stream bool `json:"stream,omitempty"`
	// TimeoutMS caps the edit's pipeline budget (clamped to the server
	// default, like CompileRequest.TimeoutMS).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// toEdit converts the wire form to the session edit op.
func (r *SessionEditRequest) toEdit() (argo.SessionEdit, error) {
	e := argo.SessionEdit{
		Op:        r.Op,
		Func:      r.Func,
		Source:    r.Source,
		Param:     r.Param,
		Value:     r.Value,
		Transform: r.Transform,
		Disable:   r.Disable,
	}
	if r.Op == argo.SessionOpSetPolicy {
		pol, err := ParsePolicy(r.Policy)
		if err != nil {
			return e, err
		}
		e.Policy = pol
	}
	if r.Op == argo.SessionOpSetFaults {
		if r.Faults == nil {
			return e, fmt.Errorf("set-faults needs faults")
		}
		e.Faults = r.Faults.ToSpec()
	}
	return e, nil
}

// SessionSummary is the JSON result of a session creation or edit: the
// incremental-analysis accounting plus the full compile summary.
type SessionSummary struct {
	// Session is the session id (path segment of the per-session routes).
	Session string `json:"session"`
	// Fingerprint content-addresses the analysis result; an edit that
	// does not change it was semantically a no-op.
	Fingerprint string `json:"fingerprint"`
	// PassesSkipped / PassesReran split the pipeline into the clean set
	// (restored from the session's pass cache) and the dirty suffix that
	// actually re-ran.
	PassesSkipped int `json:"passes_skipped"`
	PassesReran   int `json:"passes_reran"`
	// ChangedTasks lists the tasks the edit moved (window, bound, or
	// interference); omitted when nothing moved.
	ChangedTasks []int `json:"changed_tasks,omitempty"`
	// BoundDelta is newTotalBound - oldTotalBound (0 on creation).
	BoundDelta int64 `json:"bound_delta"`
	// WallNS is the re-analysis wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Verified reports that the differential cold compile ran and
	// matched bit-identically.
	Verified bool `json:"verified"`
	// Compile is the full result summary (same shape as /v1/compile).
	Compile *CompileSummary `json:"compile"`
}

// sessionSummary builds the wire form of one session analysis.
func sessionSummary(id string, uc *argo.UseCase, res *argo.SessionEditResult) *SessionSummary {
	name, period := "", int64(0)
	if uc != nil {
		name, period = uc.Name, uc.Period
	}
	return &SessionSummary{
		Session:       id,
		Fingerprint:   res.Fingerprint,
		PassesSkipped: res.PassesSkipped,
		PassesReran:   res.PassesReran,
		ChangedTasks:  res.ChangedTasks,
		BoundDelta:    res.BoundDelta,
		WallNS:        res.Wall.Nanoseconds(),
		Verified:      res.Verified,
		Compile:       Summarize(name, period, res.Artifacts),
	}
}

// SessionPassEvent is the payload of one SSE "pass" event of a
// streaming edit: a pipeline pass just finished (or restored from the
// pass cache).
type SessionPassEvent struct {
	Pass   string `json:"pass"`
	WallNS int64  `json:"wall_ns"`
	// Cache is "hit" (restored, skipped), "miss" (ran; stored if its
	// key was sighted before), or omitted for uncacheable passes.
	Cache string `json:"cache,omitempty"`
}

// SessionInfoJSON is one row of GET /v1/session.
type SessionInfoJSON struct {
	ID     string `json:"id"`
	Edits  int    `json:"edits"`
	IdleMS int64  `json:"idle_ms"`
	AgeMS  int64  `json:"age_ms"`
}

// SessionGetResponse is the body of GET /v1/session/{id}: the session's
// current canonical source (a cold compile of exactly this text
// reproduces the session result bit-identically), its fingerprint, and
// the current compile summary.
type SessionGetResponse struct {
	Session     string          `json:"session"`
	Source      string          `json:"source"`
	Fingerprint string          `json:"fingerprint"`
	Edits       int             `json:"edits"`
	Compile     *CompileSummary `json:"compile"`
}

// SessionSimulateRequest is the body of POST /v1/session/{id}/simulate.
// The model, platform, and fault spec come from the session; only the
// input seeds are per-request. Seeds/Runs expand like /v1/simulate.
type SessionSimulateRequest struct {
	Seeds     []int64 `json:"seeds,omitempty"`
	Runs      int     `json:"runs,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}
