package session

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"expvar"
	"fmt"
	"sync"
	"time"

	"argo/internal/core"
	"argo/internal/fault"
)

// Process-wide session observability, served by argod's /debug/vars.
// All Managers in the process share the counters (one daemon runs one
// manager; tests read deltas).
var (
	sessLive    = expvar.NewInt("argo_session_live")
	sessEvicted = expvar.NewInt("argo_session_evicted")
	sessExpired = expvar.NewInt("argo_session_expired")
	sessEdits   = expvar.NewInt("argo_session_edits")
	// Cumulative dirty-suffix accounting across all session analyses:
	// how many pass executions the incremental machinery skipped
	// (snapshot restore) vs actually re-ran.
	sessPassesSkipped = expvar.NewInt("argo_session_passes_skipped")
	sessPassesReran   = expvar.NewInt("argo_session_passes_reran")
	// memoHits counts analyses served whole from a session's result
	// memo (a revisited configuration: the empty-dirty-suffix case).
	memoHits = expvar.NewInt("argo_session_memo_hits")
)

// Counters returns the process-wide session counters (live, evicted,
// expired, edits) — the expvar values, snapshot for tests.
func Counters() (live, evicted, expired, edits int64) {
	return sessLive.Value(), sessEvicted.Value(), sessExpired.Value(), sessEdits.Value()
}

// Manager owns the live sessions of one service process: bounded count
// with LRU eviction, TTL expiry, and id allocation. All methods are
// safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	// now is the TTL clock (time.Now; tests substitute a fake clock).
	now func() time.Time
}

type managerEntry struct {
	s        *Session
	lastUsed time.Time
	created  time.Time
}

// Default manager bounds.
const (
	DefaultMaxSessions = 64
	DefaultTTL         = 30 * time.Minute
)

// NewManager returns a manager holding at most max sessions (<= 0:
// DefaultMaxSessions), expiring sessions idle longer than ttl (<= 0:
// DefaultTTL).
func NewManager(max int, ttl time.Duration) *Manager {
	if max <= 0 {
		max = DefaultMaxSessions
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Manager{
		max:     max,
		ttl:     ttl,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		now:     time.Now,
	}
}

// newID allocates a session id ("s-" + 12 hex chars).
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: id entropy: %v", err)) // crypto/rand never fails on supported platforms
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Create cold-compiles a new session and registers it, evicting the
// least-recently-used session if the manager is full.
func (m *Manager) Create(ctx context.Context, source string, opt core.Options, faults fault.Spec, aopt ApplyOptions) (*Session, *EditResult, error) {
	s, res, err := newSession(ctx, source, opt, faults, aopt)
	if err != nil {
		return nil, nil, err
	}
	m.observe(res)

	m.mu.Lock()
	now := m.now()
	m.sweepLocked(now)
	for m.lru.Len() >= m.max {
		m.removeLocked(m.lru.Back(), sessEvicted)
	}
	s.ID = newID()
	for m.entries[s.ID] != nil { // vanishing collision odds, but ids must be unique
		s.ID = newID()
	}
	m.entries[s.ID] = m.lru.PushFront(&managerEntry{s: s, lastUsed: now, created: now})
	m.mu.Unlock()
	sessLive.Add(1)
	return s, res, nil
}

// Get returns a live session and touches its LRU/TTL clock. A session
// idle past the TTL is expired on access.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[id]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*managerEntry)
	now := m.now()
	if now.Sub(ent.lastUsed) > m.ttl {
		m.removeLocked(el, sessExpired)
		return nil, false
	}
	ent.lastUsed = now
	m.lru.MoveToFront(el)
	return ent.s, true
}

// Delete removes a session; it reports whether the id was live.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[id]
	if !ok {
		return false
	}
	m.removeLocked(el, nil)
	return true
}

// Sweep expires every session idle past the TTL and returns how many it
// removed. The service runs it periodically; Create runs it inline so a
// burst of creations cannot pin expired sessions in memory.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepLocked(m.now())
}

func (m *Manager) sweepLocked(now time.Time) int {
	n := 0
	for el := m.lru.Back(); el != nil; {
		prev := el.Prev()
		if now.Sub(el.Value.(*managerEntry).lastUsed) > m.ttl {
			m.removeLocked(el, sessExpired)
			n++
		}
		el = prev
	}
	return n
}

// removeLocked drops one session, counting it against the given expvar
// (nil for explicit deletes). Caller holds m.mu.
func (m *Manager) removeLocked(el *list.Element, counter *expvar.Int) {
	ent := el.Value.(*managerEntry)
	ent.s.close()
	m.lru.Remove(el)
	delete(m.entries, ent.s.ID)
	if counter != nil {
		counter.Add(1)
	}
	sessLive.Add(-1)
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// Apply routes one edit to a live session, touching its clock and
// feeding the process-wide counters.
func (m *Manager) Apply(ctx context.Context, id string, e Edit, aopt ApplyOptions) (*EditResult, error) {
	s, ok := m.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	res, err := s.Apply(ctx, e, aopt)
	if err != nil {
		return nil, err
	}
	sessEdits.Add(1)
	m.observe(res)
	return res, nil
}

// observe feeds one analysis's dirty-suffix split into the counters.
func (m *Manager) observe(res *EditResult) {
	sessPassesSkipped.Add(int64(res.PassesSkipped))
	sessPassesReran.Add(int64(res.PassesReran))
}

// Info is one session's row in a listing.
type Info struct {
	ID      string
	Edits   int
	IdleFor time.Duration
	Age     time.Duration
}

// List snapshots the live sessions, most recently used first. It takes
// no session's lock, so it never waits for an edit in flight; a session
// mid-edit is listed with its committed edit count.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]Info, 0, m.lru.Len())
	for el := m.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*managerEntry)
		out = append(out, Info{
			ID:      ent.s.ID,
			Edits:   int(ent.s.edits.Load()),
			IdleFor: now.Sub(ent.lastUsed),
			Age:     now.Sub(ent.created),
		})
	}
	return out
}

// TTL returns the manager's idle expiry.
func (m *Manager) TTL() time.Duration { return m.ttl }

// Max returns the manager's session-count bound.
func (m *Manager) Max() int { return m.max }

// ErrNotFound marks a session id that is not (or no longer) live.
var ErrNotFound = fmt.Errorf("session: not found (expired, evicted, or never created)")
