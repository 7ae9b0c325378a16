package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"argo/internal/memo"
)

// Outcome classifies how a cache request was served: OutcomeMiss (this
// request computed the value), OutcomeHit (it was cached) or
// OutcomeDedup (an identical request was in flight and this one
// attached to it).
type Outcome = memo.Outcome

// Cache request outcomes.
const (
	OutcomeMiss  = memo.Miss
	OutcomeHit   = memo.Hit
	OutcomeDedup = memo.Dedup
)

// HashKey derives a content address from the canonicalized parts of a
// request: the parts are JSON-encoded in order and hashed with SHA-256.
// Callers must canonicalize free-form inputs first (in particular,
// platform descriptions are re-encoded through the ADL codec so that a
// built-in name and an equivalent inline description hash identically).
func HashKey(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			// Only service-controlled types are hashed; an encode error
			// is a programming bug, not an input error.
			panic(fmt.Sprintf("service: unhashable cache key part: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is the bounded, content-addressed result cache with singleflight
// deduplication: Do computes the value for a key at most once at a
// time, concurrent requests for the same key share the one execution,
// and successful results are retained under LRU eviction. A coordinator
// keeps its forwarded-response tier in the same instance (Get and Put
// under "fwd:" keys).
type Cache = memo.Cache[string, any]

// Stats is a point-in-time snapshot of the cache counters.
type Stats = memo.Stats

// NewCache returns a cache retaining up to max entries (max <= 0 means
// an unbounded cache).
func NewCache(max int) *Cache { return memo.New[string, any](max) }
