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

	// fallback is an optional read-through tier consulted on a local
	// miss (session-private caches fall back to Global). Stores dedupe
	// against it: a snapshot the fallback already holds is not stored
	// again locally — the same content-addressed key yields the same
	// immutable snapshot, so double-storing it only wastes memory and
	// pressures the local bound into needless evictions.
	fallback *Cache

	deferrals atomic.Int64
}

// Global is the process-wide pass cache shared by every pipeline
// execution (candidates of one optimizer ladder, feedback rounds, and
// argod requests all reuse each other's pass results). Its entry count
// and eviction total are exported as the expvars
// argo_pass_cache_entries and argo_pass_cache_evictions.
var Global = NewCache(0)

// NewCache returns a private pass cache bounded to at most maxEntries
// snapshots (maxEntries <= 0: the default bound). Interactive sessions
// use private caches so one session's artifact history cannot evict
// another's, and evicting the session frees its snapshots.
func NewCache(maxEntries int) *Cache {
	return &Cache{m: memo.New[cacheAddr, any](cacheBound(maxEntries))}
}

// SetMax rebounds the cache to at most maxEntries snapshots
// (maxEntries <= 0 restores the default bound).
func (c *Cache) SetMax(maxEntries int) { c.m.SetMax(cacheBound(maxEntries)) }

func cacheBound(maxEntries int) int {
	if maxEntries <= 0 {
		return defaultCacheMax
	}
	return maxEntries
}

// SetFallback chains a read-through tier behind c: gets consult it on a
// local miss, puts skip snapshots it already holds. Both are counted as
// deferrals — requests this cache deferred to the shared tier instead
// of holding its own copy. Safe because snapshots are immutable and
// restores deep-clone — the tiers can share entries freely.
func (c *Cache) SetFallback(f *Cache) { c.fallback = f }

// Deferrals returns how many requests were deferred to the fallback
// tier (local misses it served, plus stores it made redundant).
func (c *Cache) Deferrals() int64 { return c.deferrals.Load() }

func (c *Cache) get(a cacheAddr) (any, bool) {
	v, ok := c.m.Get(a)
	if !ok && c.fallback != nil {
		if v, ok = c.fallback.get(a); ok {
			c.deferrals.Add(1)
		}
	}
	return v, ok
}

func (c *Cache) put(a cacheAddr, v any) {
	if c.fallback != nil {
		if _, held := c.fallback.get(a); held {
			c.deferrals.Add(1)
			return
		}
	}
	if c.m.Put(a, v) {
		globalEvictions.Add(1)
	}
}

// Reset drops every cached pass result (tests and benchmarks measuring
// the cold path). Counters are preserved.
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
