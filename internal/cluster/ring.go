// Package cluster scales the single-replica analysis service into a
// sharded cluster: a consistent-placement ring assigns every
// content-addressed job key to one owning replica, a coordinator
// forwards cache misses to the owner (falling through the preference
// order when a replica is down or over its load bound), and hot cache
// entries are replicated to their new owners on membership change so
// scale-up warms the moved shard instead of stampeding it.
//
// The placement layer uses rendezvous (highest-random-weight) hashing:
// every (member, key) pair gets a pseudo-random weight and the key is
// owned by the member with the highest weight. Rendezvous hashing gives
// the two properties the cluster tests pin down as hard invariants:
//
//   - balance: keys spread evenly across members (each member's share
//     concentrates around 1/n of the keyspace);
//   - minimal remap: removing a member moves exactly the keys it owned
//     (everyone else's maximum is untouched), and adding a member moves
//     only the keys whose new maximum is the new member (an expected
//     1/(n+1) fraction). There is no full reshuffle, ever.
package cluster

import "sort"

// fnv64a constants (FNV-1a, 64 bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// weight derives the rendezvous weight of a (member, key) pair: FNV-1a
// over member‖NUL‖key, finished with a 64-bit avalanche mix (FNV alone
// mixes low bits weakly for short, similar inputs — member names are
// near-identical URLs — and a biased weight would skew the balance
// bound the property tests assert).
func weight(member, key string) uint64 {
	h := fnvString(fnvOffset64, member)
	h ^= 0xff
	h *= fnvPrime64
	h = fnvString(h, key)
	// splitmix64-style finalizer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Ring is an immutable placement snapshot over a replica set. Methods
// are goroutine-safe; membership changes build a new Ring (the cluster
// swaps rings atomically).
type Ring struct {
	members []string // sorted, deduped
}

// NewRing builds a placement snapshot over the given members (base
// URLs). Members are deduplicated; order is irrelevant — the same set
// always produces the same placements.
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	ms := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return &Ring{members: ms}
}

// Members returns the member set (sorted; callers must not mutate).
func (r *Ring) Members() []string { return r.members }

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key ("" for an empty ring). Ties on
// the rendezvous weight break to the lexicographically smaller member,
// so ownership is a pure function of (member set, key).
func (r *Ring) Owner(key string) string {
	var best string
	var bestW uint64
	for _, m := range r.members {
		if w := weight(m, key); best == "" || w > bestW {
			best, bestW = m, w
		}
	}
	return best
}

// Order returns every member sorted by descending rendezvous weight for
// key: Order(key)[0] is the owner, and the tail is the deterministic
// fallback sequence a coordinator walks when the owner is down or over
// its load bound. The result is freshly allocated.
func (r *Ring) Order(key string) []string {
	type mw struct {
		m string
		w uint64
	}
	ws := make([]mw, len(r.members))
	for i, m := range r.members {
		ws[i] = mw{m, weight(m, key)}
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].w != ws[j].w {
			return ws[i].w > ws[j].w
		}
		return ws[i].m < ws[j].m
	})
	out := make([]string, len(ws))
	for i, e := range ws {
		out[i] = e.m
	}
	return out
}
