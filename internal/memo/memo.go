// Package memo is the one bounded memo table behind every in-process
// cache of the tool-chain: the service result cache, the pass-result
// caches, the WCET bound cache, the session result memo and the cluster
// hot set.
//
// Every one of those caches is an accelerator keyed by content, not a
// correctness mechanism: which entry survives never changes a result,
// only which future lookups hit. The eviction policy still matters for
// repeatability, so it is one deterministic policy everywhere — least
// recently used under an entry bound — and a fixed request sequence
// always yields the same hits, misses and evictions. Caches that store
// an entry only on its key's second sighting (Admit: the process-wide
// pass cache, the simulator's variant-trace memo) share one ghost-list
// rule, so the same sequence also yields the same admissions.
package memo

import (
	"context"
	"errors"
	"sync"
)

// Outcome classifies how Do served a request.
type Outcome int

// Do outcomes.
const (
	// Miss: the value was computed by this request.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Dedup: an identical computation was already in flight and this
	// request attached to it.
	Dedup
)

// String returns the outcome label used in headers and metrics.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	}
	return "miss"
}

// ErrPanicked is what the followers of a computation receive when its
// function panicked in the leader. The panic itself propagates in the
// leader; nothing is cached, so the next request for the key computes
// afresh.
var ErrPanicked = errors.New("memo: computation panicked")

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Dedups    int64 `json:"dedups"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// node is one entry on a recency list.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// lru is a map threaded on a recency list: root.next is the most
// recently used node, root.prev the least. It is not safe to copy once
// reset.
type lru[K comparable, V any] struct {
	m    map[K]*node[K, V]
	root node[K, V] // sentinel
}

// reset empties the list.
func (l *lru[K, V]) reset() {
	l.m = make(map[K]*node[K, V])
	l.root.prev, l.root.next = &l.root, &l.root
}

// add stores v under the absent key k as the most recent node.
func (l *lru[K, V]) add(k K, v V) {
	n := &node[K, V]{key: k, val: v}
	l.m[k] = n
	l.pushFront(n)
}

// trim drops least recent nodes until at most max remain (max <= 0:
// unbounded) and returns how many it dropped.
func (l *lru[K, V]) trim(max int) int {
	dropped := 0
	for max > 0 && len(l.m) > max {
		last := l.root.prev
		l.unlink(last)
		delete(l.m, last.key)
		dropped++
	}
	return dropped
}

func (l *lru[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
}

func (l *lru[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

// touch marks n the most recently used node.
func (l *lru[K, V]) touch(n *node[K, V]) {
	if l.root.next == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

// call is one in-flight computation followers can attach to.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a map bounded by entry count with least-recently-used
// eviction, singleflight computation (Do) and a second-sighting
// admission rule for callers that want one (Admit). Every lookup, store,
// sighting and counter update happens under one mutex. All methods are
// safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries lru[K, V]
	// ghost holds the keys Admit has sighted, bounded to twice the
	// entry bound.
	ghost lru[K, struct{}]
	calls map[K]*call[V]

	hits, misses, dedups, evictions int64
}

// New returns a cache holding at most max entries (max <= 0: unbounded).
func New[K comparable, V any](max int) *Cache[K, V] {
	c := &Cache[K, V]{max: max, calls: make(map[K]*call[V])}
	c.entries.reset()
	c.ghost.reset()
	return c
}

// Get returns the value cached under k and marks it most recently used.
// It counts one hit or one miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries.m[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.entries.touch(n)
	return n.val, true
}

// Put stores v under k as the most recently used entry. Storing over an
// existing key replaces its value without evicting anything; a new key
// in a full cache evicts the least recently used entry. Put reports
// whether it evicted.
func (c *Cache[K, V]) Put(k K, v V) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.put(k, v) > 0
}

// Admit records a sighting of k and reports whether k was sighted
// before. It is the admission rule of callers that store an entry only
// on its key's second sighting, so a key seen once never pays for a
// stored copy: they call Admit after a miss and Put only when it
// reports true. The sightings live in a ghost list of keys, most recent
// first, bounded to twice the entry bound (unbounded when the cache
// is): a key is forgotten once that many newer distinct keys are
// sighted. Admit neither reads nor stores an entry.
func (c *Cache[K, V]) Admit(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.ghost.m[k]; ok {
		c.ghost.touch(n)
		return true
	}
	c.ghost.add(k, struct{}{})
	c.ghost.trim(2 * c.max)
	return false
}

// Do returns the value cached under k, or computes it with fn. If an
// identical computation is already in flight, Do waits for it and
// shares its result instead of starting a second one. Errors are
// returned but never cached. A follower whose ctx expires stops waiting
// and returns ctx's error; the computation keeps running under the
// leader. If fn panics, the panic propagates in the leader, the key is
// released and its followers receive ErrPanicked.
func (c *Cache[K, V]) Do(ctx context.Context, k K, fn func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if n, ok := c.entries.m[k]; ok {
		c.hits++
		c.entries.touch(n)
		v := n.val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if cl, ok := c.calls[k]; ok {
		c.dedups++
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.val, Dedup, cl.err
		case <-ctx.Done():
			var zero V
			return zero, Dedup, ctx.Err()
		}
	}
	// err stays ErrPanicked unless fn returns.
	cl := &call[V]{done: make(chan struct{}), err: ErrPanicked}
	c.calls[k] = cl
	c.misses++
	c.mu.Unlock()

	defer c.finish(k, cl)
	cl.val, cl.err = fn()
	return cl.val, Miss, cl.err
}

// finish unregisters a completed (or panicked) call, caches a
// successful result and releases the followers.
func (c *Cache[K, V]) finish(k K, cl *call[V]) {
	c.mu.Lock()
	delete(c.calls, k)
	if cl.err == nil {
		c.put(k, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
}

// Range calls f for every entry, from the most to the least recently
// used, until f returns false. It iterates over a snapshot taken under
// the lock, so f may call back into the cache.
func (c *Cache[K, V]) Range(f func(K, V) bool) {
	c.mu.Lock()
	snap := make([]node[K, V], 0, len(c.entries.m))
	for n := c.entries.root.next; n != &c.entries.root; n = n.next {
		snap = append(snap, node[K, V]{key: n.key, val: n.val})
	}
	c.mu.Unlock()
	for _, n := range snap {
		if !f(n.key, n.val) {
			return
		}
	}
}

// Reset drops every entry and every sighting. Counters and in-flight
// computations are kept.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.reset()
	c.ghost.reset()
}

// SetMax rebounds the cache to at most max entries (max <= 0:
// unbounded), evicting least recently used entries down to the new
// bound at once; the ghost list follows at twice the bound.
func (c *Cache[K, V]) SetMax(max int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = max
	c.trim()
	c.ghost.trim(2 * max)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries.m)
}

// Stats snapshots the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Dedups: c.dedups, Evictions: c.evictions, Entries: len(c.entries.m)}
}

// put stores v under k and returns how many entries it evicted. Caller
// holds c.mu.
func (c *Cache[K, V]) put(k K, v V) int {
	if n, ok := c.entries.m[k]; ok {
		n.val = v
		c.entries.touch(n)
		return 0
	}
	c.entries.add(k, v)
	return c.trim()
}

// trim evicts least recently used entries down to the bound and returns
// how many it evicted. Caller holds c.mu.
func (c *Cache[K, V]) trim() int {
	evicted := c.entries.trim(c.max)
	c.evictions += int64(evicted)
	return evicted
}
