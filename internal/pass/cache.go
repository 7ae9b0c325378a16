package pass

import (
	"crypto/sha256"
	"expvar"

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
// A cache stores a snapshot only on its key's second sighting
// (memo.Cache.Admit): most of what it sees is configurations analyzed
// once, and freezing their passes costs clones, codec work and heap
// that nothing restores. A configuration's first compile stores
// nothing, its second stores, and from the third on every pass
// restores. What-if sessions follow the same rule on Global: after an
// edit to a program never analyzed before, the next edit re-runs its
// unchanged passes once and stores them, and later edits restore them.

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

// Cache is a bounded, content-addressed pass-result store that admits a
// snapshot on its key's second sighting. Snapshots stored in it must be
// immutable (the Snapshot/Restore contract deep-copies anything
// mutable).
type Cache struct {
	m *memo.Cache[cacheAddr, any]
}

// Global is the process-wide pass cache shared by every pipeline
// execution: candidates of one optimizer ladder, feedback rounds, argod
// requests and what-if sessions all reuse each other's pass results.
// Its entry count and eviction total are exported as the expvars
// argo_pass_cache_entries and argo_pass_cache_evictions.
var Global = NewCache(0)

// NewCache returns a pass cache bounded to at most maxEntries snapshots
// (maxEntries <= 0: the default bound). Tests use one in place of
// Global to observe a cache no other compile touches.
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

func (c *Cache) get(a cacheAddr) (any, bool) { return c.m.Get(a) }

// admit records a sighting of a key that missed and reports whether its
// snapshot is worth freezing: only a key sighted before is stored.
func (c *Cache) admit(a cacheAddr) bool { return c.m.Admit(a) }

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

// Stats snapshots the cache's counters. The process-wide hit/miss
// totals of the pipeline (every cache together) are CacheCounters.
func (c *Cache) Stats() memo.Stats { return c.m.Stats() }

// Process-wide pass-cache growth observability: entries currently held
// by the Global cache and cumulative evictions across all caches,
// served by argod's /debug/vars.
var globalEvictions = expvar.NewInt("argo_pass_cache_evictions")

func init() {
	expvar.Publish("argo_pass_cache_entries", expvar.Func(func() any {
		return Global.Len()
	}))
}
