package cluster

import (
	"bytes"
	"context"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"argo/internal/memo"
)

// Process-wide cluster counters, visible on /debug/vars. Per-cluster
// counts are available via Cluster.Stats (tests use those); the expvars
// aggregate across every coordinator in the process.
var (
	evForwards      = expvar.NewInt("argo_cluster_forwards")
	evLocalHits     = expvar.NewInt("argo_cluster_local_hits")
	evRebalances    = expvar.NewInt("argo_cluster_rebalances")
	evReplicaErrors = expvar.NewInt("argo_cluster_replica_errors")
)

// Options tunes one cluster coordinator.
type Options struct {
	// Peers are the replica base URLs jobs are sharded across.
	Peers []string
	// Client issues the forwarded requests (default: a dedicated client;
	// per-attempt deadlines come from ForwardTimeout).
	Client *http.Client
	// ForwardTimeout bounds each forwarded attempt, so a hanging replica
	// costs one timeout before the coordinator falls through to the next
	// replica in preference order (default 30s).
	ForwardTimeout time.Duration
	// Quarantine is how long a replica that failed a forward is skipped
	// before it is probed again (default 1s).
	Quarantine time.Duration
	// HotSet bounds the LRU of recently served keys kept for warm
	// replication on membership change (default 512; <0 disables).
	HotSet int
	// WarmWorkers bounds concurrent warm-replication requests during a
	// rebalance (default 4).
	WarmWorkers int
	// MaxInflight is the bounded-load fallback: a replica with this many
	// forwards already in flight is skipped in favor of the next replica
	// in preference order (0: unbounded).
	MaxInflight int
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 30 * time.Second
	}
	if o.Quarantine <= 0 {
		o.Quarantine = time.Second
	}
	if o.HotSet == 0 {
		o.HotSet = 512
	}
	if o.HotSet < 0 {
		o.HotSet = 0
	}
	if o.WarmWorkers <= 0 {
		o.WarmWorkers = 4
	}
	return o
}

// replica is the coordinator's view of one member's health and load.
type replica struct {
	inflight  atomic.Int64
	downUntil atomic.Int64 // unix nanos; 0 = healthy
}

func (r *replica) down(now time.Time) bool {
	return now.UnixNano() < r.downUntil.Load()
}

// hotEntry is one warm-replication descriptor: replaying Body against
// Path on a key's new owner reproduces (and therefore caches) the
// result there, because the service's caches are content-addressed.
type hotEntry struct {
	key  string
	path string
	body []byte
}

// Result is one successfully forwarded response.
type Result struct {
	// Replica is the base URL of the member that served the request.
	Replica string
	// Status is the replica's HTTP status (may be a 4xx client error —
	// those are deterministic and are passed through, not retried).
	Status int
	// Outcome is the replica's X-Argo-Cache header (hit/miss/dedup).
	Outcome string
	// Body is the replica's response body.
	Body []byte
}

// Stats is a point-in-time snapshot of the coordinator counters.
type Stats struct {
	Members int `json:"members"`
	// Forwards counts requests served by forwarding to a replica.
	Forwards int64 `json:"forwards"`
	// LocalHits counts requests served from the coordinator's own cache
	// tier without touching a replica.
	LocalHits int64 `json:"local_hits"`
	// Rebalances counts hot keys replicated to a new owner on
	// membership change.
	Rebalances int64 `json:"rebalances"`
	// ReplicaErrors counts forward attempts that failed (transport
	// error, timeout, or 5xx) and fell through to the next replica.
	ReplicaErrors int64 `json:"replica_errors"`
	// Rebalancing reports whether a warm replication is in flight.
	Rebalancing bool `json:"rebalancing"`
}

// ReplicaHealth is one member's row in a topology listing.
type ReplicaHealth struct {
	URL      string `json:"url"`
	Down     bool   `json:"down"`
	InFlight int64  `json:"in_flight"`
}

// Cluster is the coordinator state: an atomically swapped placement
// ring, per-replica health and load, and the hot-key set replicated on
// membership change. All methods are goroutine-safe.
type Cluster struct {
	opt    Options
	client *http.Client

	ring atomic.Pointer[Ring]

	mu   sync.Mutex
	reps map[string]*replica
	hot  *memo.Cache[string, hotEntry]

	rebalancing atomic.Int64 // number of in-flight warm replications

	forwards      atomic.Int64
	localHits     atomic.Int64
	rebalances    atomic.Int64
	replicaErrors atomic.Int64
}

// New builds a coordinator over opt.Peers.
func New(opt Options) *Cluster {
	opt = opt.withDefaults()
	c := &Cluster{
		opt:    opt,
		client: opt.Client,
		reps:   make(map[string]*replica),
		hot:    memo.New[string, hotEntry](opt.HotSet),
	}
	c.ring.Store(NewRing(opt.Peers))
	return c
}

// Ring returns the current placement snapshot.
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// Members returns the current member set (sorted).
func (c *Cluster) Members() []string { return c.Ring().Members() }

// Rebalancing reports whether a warm replication is in flight (the
// service flips readiness off while it is, so load balancers pause new
// routing until the moved shards are warm).
func (c *Cluster) Rebalancing() bool { return c.rebalancing.Load() > 0 }

// CountLocalHit records one request served from the coordinator's own
// cache tier.
func (c *Cluster) CountLocalHit() {
	c.localHits.Add(1)
	evLocalHits.Add(1)
}

// Stats snapshots the coordinator counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Members:       c.Ring().Len(),
		Forwards:      c.forwards.Load(),
		LocalHits:     c.localHits.Load(),
		Rebalances:    c.rebalances.Load(),
		ReplicaErrors: c.replicaErrors.Load(),
		Rebalancing:   c.Rebalancing(),
	}
}

// Health lists every member with its health and in-flight load.
func (c *Cluster) Health() []ReplicaHealth {
	now := time.Now()
	members := c.Members()
	out := make([]ReplicaHealth, 0, len(members))
	for _, m := range members {
		rep := c.replicaState(m)
		out = append(out, ReplicaHealth{
			URL:      m,
			Down:     rep.down(now),
			InFlight: rep.inflight.Load(),
		})
	}
	return out
}

func (c *Cluster) replicaState(m string) *replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.reps[m]
	if !ok {
		rep = &replica{}
		c.reps[m] = rep
	}
	return rep
}

// Forward routes one request to the replica owning key, falling through
// the preference order past replicas that are down, over their load
// bound, or that fail the attempt (transport error, per-attempt
// timeout, or 5xx — those mark the replica down for the quarantine and
// count as replica errors). 4xx responses are deterministic client
// errors and are returned, not retried. Successful forwards are
// recorded in the hot set for warm replication on membership change.
//
// An error return means every member failed; callers fall back to local
// execution so no request is ever silently dropped.
func (c *Cluster) Forward(ctx context.Context, key, path string, body []byte) (*Result, error) {
	ring := c.Ring()
	if ring.Len() == 0 {
		return nil, fmt.Errorf("cluster: no replicas")
	}
	order := ring.Order(key)
	now := time.Now()

	// First pass honors health and the load bound; if that skips every
	// member (all down or all at the bound), a second desperate pass
	// tries the skipped ones anyway — a quarantined replica beats
	// refusing outright.
	tried := make(map[string]bool, len(order))
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for _, m := range order {
			if tried[m] {
				continue
			}
			rep := c.replicaState(m)
			if pass == 0 {
				if rep.down(now) {
					continue
				}
				if c.opt.MaxInflight > 0 && rep.inflight.Load() >= int64(c.opt.MaxInflight) {
					continue
				}
			}
			tried[m] = true
			res, err := c.tryOne(ctx, rep, m, path, body)
			if err != nil {
				lastErr = err
				c.markDown(rep, m, err)
				if ctx.Err() != nil {
					return nil, lastErr
				}
				continue
			}
			rep.downUntil.Store(0) // success: the replica is healthy
			c.forwards.Add(1)
			evForwards.Add(1)
			if res.Status == http.StatusOK {
				c.record(key, path, body)
			}
			return res, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no reachable replica for key %.16s", key)
	}
	return nil, lastErr
}

// Call issues one request to a specific member — the remote candidate
// worker path, where placement is by worker slot rather than by key.
// Failures quarantine the member like a failed forward; the caller is
// expected to fall back to local evaluation so no work is dropped.
func (c *Cluster) Call(ctx context.Context, member, path string, body []byte) (*Result, error) {
	rep := c.replicaState(member)
	res, err := c.tryOne(ctx, rep, member, path, body)
	if err != nil {
		c.markDown(rep, member, err)
		return nil, err
	}
	rep.downUntil.Store(0)
	c.forwards.Add(1)
	evForwards.Add(1)
	return res, nil
}

// tryOne issues one forwarded attempt under the per-attempt timeout.
func (c *Cluster) tryOne(ctx context.Context, rep *replica, member, path string, body []byte) (*Result, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	actx, cancel := context.WithTimeout(ctx, c.opt.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, member+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", member, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", member, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: read: %w", member, err)
	}
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("cluster: %s: status %d: %.200s", member, resp.StatusCode, data)
	}
	return &Result{
		Replica: member,
		Status:  resp.StatusCode,
		Outcome: resp.Header.Get("X-Argo-Cache"),
		Body:    data,
	}, nil
}

func (c *Cluster) markDown(rep *replica, member string, err error) {
	c.replicaErrors.Add(1)
	evReplicaErrors.Add(1)
	rep.downUntil.Store(time.Now().Add(c.opt.Quarantine).UnixNano())
}

// record remembers a successfully served key's request descriptor in
// the bounded hot set.
func (c *Cluster) record(key, path string, body []byte) {
	if c.opt.HotSet == 0 {
		return
	}
	c.hot.Put(key, hotEntry{key: key, path: path, body: body})
}

// HotKeys returns the number of keys currently in the hot set.
func (c *Cluster) HotKeys() int { return c.hot.Len() }

// SetMembers swaps the member set and kicks off warm replication in the
// background: every hot key whose owner changed is replayed against its
// new owner, so a scaled-up replica set serves the moved shard from a
// warm cache instead of recomputing it under live traffic. Rebalancing
// reports true until the warm pass finishes.
func (c *Cluster) SetMembers(members []string) {
	old := c.Ring()
	next := NewRing(members)
	c.ring.Store(next)

	var moves []hotEntry
	c.hot.Range(func(key string, e hotEntry) bool {
		if old.Owner(key) != next.Owner(key) {
			moves = append(moves, e)
		}
		return true
	})
	if len(moves) == 0 {
		return
	}
	c.rebalancing.Add(1)
	go c.warm(moves)
}

// warm replays moved hot entries against their new owners on a bounded
// worker set. Failures are tolerated (the shard simply stays cold and
// the next live request recomputes it); successes count as rebalances.
func (c *Cluster) warm(moves []hotEntry) {
	defer c.rebalancing.Add(-1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workers := c.opt.WarmWorkers
	if workers > len(moves) {
		workers = len(moves)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(moves) || ctx.Err() != nil {
					return
				}
				e := moves[i]
				owner := c.Ring().Owner(e.key)
				if owner == "" {
					continue
				}
				rep := c.replicaState(owner)
				if _, err := c.tryOne(ctx, rep, owner, e.path, e.body); err == nil {
					c.rebalances.Add(1)
					evRebalances.Add(1)
				}
			}
		}()
	}
	wg.Wait()
}
