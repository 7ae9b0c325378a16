package pass

import (
	"crypto/sha256"
	"expvar"
	"sync/atomic"

	"argo/internal/memo"
)

// The pass cache is content-addressed: a key is the SHA-256 of the pass
// name plus the pass's own input fingerprint, so two executions with
// equal keys are guaranteed (by the fingerprint contract) to produce
// identical outputs, and a hit restores a deep copy of the frozen
// snapshot. Like the code-level bound cache in internal/wcet, the cache
// is an accelerator, not a correctness mechanism: it is bounded so a
// long-running argod cannot grow it without limit, and at capacity it
// evicts the least recently used snapshot.
//
// Global stores a snapshot only on its key's second sighting
// (memo.Cache.Admit): most of what a process-wide cache sees is models
// compiled once, and freezing their passes costs clones, codec work and
// heap that nothing restores. A configuration's first compile stores
// nothing, its second stores, and from the third on every pass
// restores. Private caches store on the first sighting, because their
// owner (a session) revisits its own history; a session's snapshot
// whose key Global has already sighted is stored in Global instead, so
// configurations that recur across sessions and compiles are shared.

type cacheAddr [sha256.Size]byte

// cacheAddress derives the cache key for one pass execution.
func cacheAddress(passName string, fp []byte) cacheAddr {
	h := sha256.New()
	h.Write([]byte(passName))
	h.Write([]byte{0})
	h.Write(fp)
	var a cacheAddr
	h.Sum(a[:0])
	return a
}

// defaultCacheMax is the default bound on cached snapshots. Snapshots
// can be whole cloned IR programs, so the bound is much smaller than
// the wcet bound cache's.
const defaultCacheMax = 4096

// Cache is a bounded, content-addressed pass-result store. Snapshots
// stored in it must be immutable (the Snapshot/Restore contract
// deep-copies anything mutable).
type Cache struct {
	m *memo.Cache[cacheAddr, any]

	// repeat stores a snapshot only on its key's second sighting
	// (Global); otherwise every computed snapshot is stored.
	repeat bool

	// fallback is an optional read-through tier consulted on a local
	// miss (session-private caches fall back to Global). A computed
	// snapshot the fallback admits is stored there instead of locally:
	// the same content-addressed key yields the same immutable snapshot,
	// so a second copy would only waste memory and pressure the local
	// bound into needless evictions.
	fallback *Cache

	deferrals atomic.Int64
}

// Global is the process-wide pass cache shared by every pipeline
// execution (candidates of one optimizer ladder, feedback rounds, and
// argod requests all reuse each other's pass results). It stores a
// snapshot on its key's second sighting. Its entry count and eviction
// total are exported as the expvars argo_pass_cache_entries and
// argo_pass_cache_evictions.
var Global = &Cache{m: memo.New[cacheAddr, any](defaultCacheMax), repeat: true}

// NewCache returns a private pass cache bounded to at most maxEntries
// snapshots (maxEntries <= 0: the default bound). Interactive sessions
// use private caches so one session's artifact history cannot evict
// another's, and evicting the session frees its snapshots.
func NewCache(maxEntries int) *Cache {
	return &Cache{m: memo.New[cacheAddr, any](cacheBound(maxEntries))}
}

// SetMax rebounds the cache to at most maxEntries snapshots
// (maxEntries <= 0 restores the default bound), and the sightings it
// remembers to twice that.
func (c *Cache) SetMax(maxEntries int) { c.m.SetMax(cacheBound(maxEntries)) }

func cacheBound(maxEntries int) int {
	if maxEntries <= 0 {
		return defaultCacheMax
	}
	return maxEntries
}

// SetFallback chains a read-through tier behind c: gets consult it on a
// local miss, and a computed snapshot the fallback admits is stored
// there instead of locally. Both are counted as deferrals — requests
// this cache deferred to the shared tier instead of holding its own
// copy. Safe because snapshots are immutable and restores deep-clone —
// the tiers can share entries freely.
func (c *Cache) SetFallback(f *Cache) { c.fallback = f }

func (c *Cache) get(a cacheAddr) (any, bool) {
	v, ok := c.m.Get(a)
	if !ok && c.fallback != nil {
		if v, ok = c.fallback.get(a); ok {
			c.deferrals.Add(1)
		}
	}
	return v, ok
}

// admit records a sighting of a key that missed every tier and returns
// the tier its snapshot is stored in, or nil when no tier admits it and
// the snapshot is not worth freezing.
func (c *Cache) admit(a cacheAddr) *Cache {
	if c.fallback != nil && c.fallback.admits(a) {
		c.deferrals.Add(1)
		return c.fallback
	}
	if c.fallback != nil || c.admits(a) {
		return c
	}
	return nil
}

// admits applies c's own admission rule to a sighting of a.
func (c *Cache) admits(a cacheAddr) bool { return !c.repeat || c.m.Admit(a) }

func (c *Cache) put(a cacheAddr, v any) {
	if c.m.Put(a, v) {
		globalEvictions.Add(1)
	}
}

// Reset drops every cached pass result and every remembered sighting
// (tests and benchmarks measuring the cold path). Counters are
// preserved.
func (c *Cache) Reset() { c.m.Reset() }

// Len returns the number of cached snapshots.
func (c *Cache) Len() int { return c.m.Len() }

// CacheStats is a point-in-time snapshot of one cache's counters. The
// process-wide hit/miss totals of the pipeline (every tier together)
// are CacheCounters.
type CacheStats struct {
	memo.Stats
	// Deferrals counts requests deferred to the fallback tier (zero for
	// caches without one).
	Deferrals int64 `json:"deferrals,omitempty"`
}

// Stats snapshots the cache's counters and fallback-deferral total.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Stats: c.m.Stats(), Deferrals: c.deferrals.Load()}
}

// Process-wide pass-cache growth observability: entries currently held
// by the Global cache and cumulative evictions across all caches
// (session-private caches included), served by argod's /debug/vars.
var globalEvictions = expvar.NewInt("argo_pass_cache_evictions")

func init() {
	expvar.Publish("argo_pass_cache_entries", expvar.Func(func() any {
		return Global.Len()
	}))
}
