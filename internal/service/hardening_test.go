package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"argo/pkg/argo"
)

func jsonBody(s string) *strings.Reader { return strings.NewReader(s) }

// TestReadyzSplitFromHealthz: once draining begins, /readyz must turn
// 503 so load balancers stop routing, while /healthz stays 200 and an
// in-flight request still completes (the drain must not kill it).
func TestReadyzSplitFromHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	real := s.compile
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		close(started)
		<-release
		return real(ctx, job)
	}

	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d, want 200", resp.StatusCode)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var inflightStatus int
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
			jsonBody(`{"usecase":"weaa","platform":"xentium2"}`))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		inflightStatus = resp.StatusCode
	}()
	<-started

	s.StartDraining()
	if resp, body := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d (%s), want 503", resp.StatusCode, body)
	}
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness must not flip)", resp.StatusCode)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["draining"] != true {
		t.Errorf("healthz body %v, want draining=true", health)
	}

	close(release)
	wg.Wait()
	if inflightStatus != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200 (drain must not abort it)", inflightStatus)
	}
}

// TestLoadSheddingWith429: once Workers slots are busy and MaxQueue
// requests are waiting, further arrivals must be rejected immediately
// with 429 + Retry-After instead of queueing toward a timeout.
func TestLoadSheddingWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1, Timeout: 30 * time.Second})
	release := make(chan struct{})
	occupied := make(chan struct{}, 8)
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		occupied <- struct{}{}
		<-release
		return nil, fmt.Errorf("unused")
	}
	defer close(release)

	// Distinct bodies defeat cache/singleflight sharing so each request
	// needs its own pool slot.
	body := func(i int) string {
		return fmt.Sprintf(`{"usecase":"weaa","platform":"xentium%d"}`, i)
	}
	go func() { // occupies the single worker
		resp, _ := http.Post(ts.URL+"/v1/compile", "application/json", jsonBody(body(1)))
		if resp != nil {
			resp.Body.Close()
		}
	}()
	<-occupied
	go func() { // fills the one queue slot
		resp, _ := http.Post(ts.URL+"/v1/compile", "application/json", jsonBody(body(2)))
		if resp != nil {
			resp.Body.Close()
		}
	}()
	// Wait until the queue gauge shows the waiter, then overload.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, data := post(t, ts.URL+"/v1/compile", body(4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 reply missing Retry-After header")
	}
	if s.pool.Stats().Shed == 0 {
		t.Error("shed counter not incremented")
	}
}

// TestPerRequestTimeout: a request-level timeout_ms below the server
// budget must bound the request; negative values are rejected.
func TestPerRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Timeout: 30 * time.Second})
	release := make(chan struct{})
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("unused")
	}
	defer close(release)

	t0 := time.Now()
	resp, data := post(t, ts.URL+"/v1/compile",
		`{"usecase":"weaa","platform":"xentium2","timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("timeout_ms=50 request took %v — the per-request deadline was ignored", d)
	}

	resp, data = post(t, ts.URL+"/v1/compile",
		`{"usecase":"weaa","platform":"xentium2","timeout_ms":-1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms: status %d (%s), want 400", resp.StatusCode, data)
	}
}

// TestSimulateWithFaults: in-budget injection must stay within bounds
// and report its stats; the over-bound negative mode must surface
// structured violations; malformed specs are 400s.
func TestSimulateWithFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := post(t, ts.URL+"/v1/simulate",
		`{"usecase":"weaa","platform":"xentium2","seeds":[1,2],
		  "faults":{"seed":7,"access_jitter":1,"exec_inflation":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Runs) != 2 {
		t.Fatalf("runs %d, want 2", len(sr.Runs))
	}
	for _, run := range sr.Runs {
		if !run.WithinBound || len(run.Violations) > 0 {
			t.Fatalf("in-budget injection broke bounds: %+v", run)
		}
		if run.Faults == nil || run.Faults.Total() == 0 {
			t.Fatalf("run %d reports no injected interference: %+v", run.Seed, run)
		}
	}
	if sr.Runs[0].Makespan > sr.Runs[0].TotalBound {
		t.Fatalf("makespan %d > bound %d", sr.Runs[0].Makespan, sr.Runs[0].TotalBound)
	}

	resp, data = post(t, ts.URL+"/v1/simulate",
		`{"usecase":"weaa","platform":"xentium2",
		  "faults":{"seed":1,"exec_inflation":1.25}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("negative mode status %d: %s", resp.StatusCode, data)
	}
	var neg SimulateResponse
	if err := json.Unmarshal(data, &neg); err != nil {
		t.Fatal(err)
	}
	run := neg.Runs[0]
	if run.WithinBound || len(run.Violations) == 0 {
		t.Fatalf("over-bound injection silently absorbed: %+v", run)
	}
	if run.Violations[0].Kind == "" || run.Violations[0].Observed <= run.Violations[0].Bound {
		t.Fatalf("malformed violation record: %+v", run.Violations[0])
	}

	resp, _ = post(t, ts.URL+"/v1/simulate",
		`{"usecase":"weaa","faults":{"access_jitter":2}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid faults spec: status %d, want 400", resp.StatusCode)
	}
}

// TestRetryTransient: shared-fate singleflight cancellations retry;
// own-deadline and load-shed errors must not.
func TestRetryTransient(t *testing.T) {
	m := NewMetrics(NewCache(4), NewPool(1, 0), time.Now())
	calls := 0
	val, _, err := retryTransient(context.Background(), m, func() (any, Outcome, error) {
		calls++
		if calls == 1 {
			return nil, OutcomeDedup, context.Canceled // leader died, we're alive
		}
		return "ok", OutcomeMiss, nil
	})
	if err != nil || val != "ok" || calls != 2 {
		t.Fatalf("transient not retried: val=%v err=%v calls=%d", val, err, calls)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	_, _, err = retryTransient(expired, m, func() (any, Outcome, error) {
		calls++
		return nil, OutcomeDedup, context.Canceled
	})
	if err == nil || calls != 1 {
		t.Fatalf("own-context cancellation must not retry (calls=%d, err=%v)", calls, err)
	}

	calls = 0
	_, _, err = retryTransient(context.Background(), m, func() (any, Outcome, error) {
		calls++
		return nil, OutcomeMiss, &shedError{depth: 9}
	})
	if !IsShed(err) || calls != 1 {
		t.Fatalf("load shedding must propagate immediately (calls=%d, err=%v)", calls, err)
	}
}

// TestRetryPromotesFollowerAfterLeaderCancel drives the real cache path:
// a follower attached to a leader whose context dies must transparently
// retry and produce the value itself.
func TestRetryPromotesFollowerAfterLeaderCancel(t *testing.T) {
	c := NewCache(4)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(leaderCtx, "k", func() (any, error) {
			close(started)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
	}()
	<-started

	followerCtx := context.Background()
	done := make(chan struct{})
	var val any
	var err error
	go func() {
		defer close(done)
		val, _, err = retryTransient(followerCtx, nil, func() (any, Outcome, error) {
			return c.Do(followerCtx, "k", func() (any, error) { return 42, nil })
		})
	}()
	// Cancel the leader only once the follower has attached; before that
	// the follower would compute the value as a plain miss and check
	// nothing about promotion.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dedups < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the leader")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed")
	}
	if err != nil || val != 42 {
		t.Fatalf("follower not promoted: val=%v err=%v", val, err)
	}
}
