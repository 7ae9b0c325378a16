package service

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"argo/internal/cluster"
)

// soakIndex hands out globally unique request indices so every compile
// in every phase is a genuine cache miss (the generated sources embed
// the index as a constant, which flows into the content-addressed job
// key and the IR fingerprints the pass cache is keyed by).
var soakIndex atomic.Int64

// runSoakPhase drives a closed-loop unique-compile load against url and
// returns the report; every request must be served, none shed or failed.
func runSoakPhase(tb testing.TB, url string, requests, concurrency int) *cluster.LoadReport {
	tb.Helper()
	rep, err := cluster.RunLoad(context.Background(), cluster.LoadConfig{
		URL:         url,
		Concurrency: concurrency,
		Requests:    requests,
		Body: func(int) []byte {
			return cluster.UniqueCompileBody(int(soakIndex.Add(1)), "xentium4")
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if rep.OK != requests || rep.Shed != 0 || rep.Errors != 0 {
		tb.Fatalf("soak phase against %s: %s", url, rep)
	}
	return rep
}

// soakTopologies starts the two topologies the soak compares: one
// single-worker replica, and a coordinator over two single-worker
// replicas. Constrained replicas (Workers: 1) make the comparison about
// topology rather than the host's core count.
func soakTopologies(tb testing.TB) (singleURL, coordURL string) {
	replicaCfg := Config{Workers: 1, MaxQueue: 64}
	single, _ := startReplicas(tb, 1, replicaCfg, nil)
	duo, _ := startReplicas(tb, 2, replicaCfg, nil)
	_, coordURL = startCoordinator(tb, duo, Config{})
	return single[0], coordURL
}

// TestClusterSoakThroughput is the scale-out smoke: a closed-loop
// cache-miss workload (every request a unique source) against one
// replica and against a coordinator over two replicas is served in full,
// with no request shed or failed. Fingerprint equality across the
// topologies is pinned by cluster_equiv_test.go; the throughput ratio
// depends on the host's idle cores, so BenchmarkClusterScaleOut reports
// it instead of a test asserting it.
func TestClusterSoakThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	const requests = 24
	singleURL, coordURL := soakTopologies(t)
	for _, topo := range []struct{ name, url string }{{"single replica", singleURL}, {"2-replica cluster", coordURL}} {
		rep := runSoakPhase(t, topo.url, requests, 4)
		t.Logf("%s: %.1f rps", topo.name, rep.RPS)
	}
}

// BenchmarkClusterScaleOut measures what the soak test does not assert:
// requests per second of the single replica and of the two-replica
// cluster on the soak's cache-miss workload, reported per topology, and
// their ratio. Each iteration runs one 24-request phase per topology.
// The three servers and the load generator share the host, so the ratio
// reaches the two replicas' share only on a host with idle cores to
// spare.
func BenchmarkClusterScaleOut(b *testing.B) {
	const requests = 24
	singleURL, coordURL := soakTopologies(b)
	var single, coord time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single += runSoakPhase(b, singleURL, requests, 4).Elapsed
		coord += runSoakPhase(b, coordURL, requests, 4).Elapsed
	}
	n := float64(b.N * requests)
	b.ReportMetric(n/single.Seconds(), "single-rps")
	b.ReportMetric(n/coord.Seconds(), "cluster2-rps")
	b.ReportMetric(single.Seconds()/coord.Seconds(), "speedup")
}
