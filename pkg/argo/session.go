package argo

import (
	"context"
	"time"

	"argo/internal/session"
	"argo/internal/transform"
)

// Interactive what-if sessions (internal/session): a persistent store of
// compiled artifacts with a typed edit API, where each edit re-runs only
// the dirty pass suffix, restoring the rest from the pass cache every
// compile and session of the process shares, and the result is
// guaranteed bit-identical to a cold compile of the edited source.
type (
	// Session is one interactive what-if session.
	Session = session.Session
	// SessionManager owns the live sessions of a process: bounded count,
	// LRU eviction, TTL expiry.
	SessionManager = session.Manager
	// SessionEdit is one typed what-if operation.
	SessionEdit = session.Edit
	// SessionEditResult reports one session analysis (creation or edit).
	SessionEditResult = session.EditResult
	// SessionApplyOptions tunes one edit (pass streaming, differential
	// verification).
	SessionApplyOptions = session.ApplyOptions
	// SessionInfo is one session's row in a listing.
	SessionInfo = session.Info
)

// Session edit operations (SessionEdit.Op).
const (
	SessionOpReplaceFunc     = session.OpReplaceFunc
	SessionOpSetParam        = session.OpSetParam
	SessionOpToggleTransform = session.OpToggleTransform
	SessionOpSetPolicy       = session.OpSetPolicy
	SessionOpSetFaults       = session.OpSetFaults
)

// Session manager defaults.
const (
	DefaultMaxSessions = session.DefaultMaxSessions
	DefaultSessionTTL  = session.DefaultTTL
)

// ErrSessionNotFound marks a session id that is not (or no longer) live.
var ErrSessionNotFound = session.ErrNotFound

// NewSession creates a standalone session (no manager) by cold-compiling
// source under opt.
func NewSession(ctx context.Context, source string, opt Options, faults FaultSpec) (*Session, *SessionEditResult, error) {
	return session.New(ctx, source, opt, faults)
}

// NewSessionManager returns a session manager holding at most max
// sessions (<= 0: DefaultMaxSessions) and expiring sessions idle longer
// than ttl (<= 0: DefaultSessionTTL).
func NewSessionManager(max int, ttl time.Duration) *SessionManager {
	return session.NewManager(max, ttl)
}

// SessionParamNames lists the ADL parameter paths a set-param edit
// accepts, sorted.
func SessionParamNames() []string { return session.ParamNames() }

// SessionResultFingerprint content-addresses a compilation result
// (schedule, bounds, windows, transformed IR). Two artifacts with equal
// fingerprints are bit-identical for every reported value; it is the
// equality the session differential contract is stated in.
func SessionResultFingerprint(a *Artifacts) string { return session.ResultFingerprint(a) }

// SessionCounters snapshots the process-wide session expvars (live,
// evicted, expired, edits).
func SessionCounters() (live, evicted, expired, edits int64) { return session.Counters() }

// TransformPassNames lists the predictability transformation passes a
// toggle-transform edit (or PassOptions.Disable) accepts.
func TransformPassNames() []string { return transform.PassNames() }
