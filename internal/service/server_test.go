package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"argo/internal/conc"
	"argo/internal/memo"
	"argo/pkg/argo"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestCompileEndpointCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"usecase":"weaa","platform":"xentium2"}`

	resp1, data1 := post(t, ts.URL+"/v1/compile", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, data1)
	}
	if h := resp1.Header.Get("X-Argo-Cache"); h != "miss" {
		t.Errorf("first request cache header %q, want miss", h)
	}
	resp2, data2 := post(t, ts.URL+"/v1/compile", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, data2)
	}
	if h := resp2.Header.Get("X-Argo-Cache"); h != "hit" {
		t.Errorf("second request cache header %q, want hit", h)
	}
	if !bytes.Equal(data1, data2) {
		t.Error("identical requests returned different artifacts")
	}
	var sum CompileSummary
	if err := json.Unmarshal(data1, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.UseCase != "weaa" || sum.Cores != 2 || sum.TotalBound <= 0 || len(sum.Tasks) == 0 {
		t.Errorf("summary %+v", sum)
	}
	st := s.cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats %+v, want 1 miss + 1 hit", st)
	}
}

// TestCompileCacheKeyCanonicalization: naming a built-in platform and
// inlining its ADL description must hit the same cache entry.
func TestCompileCacheKeyCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	adl, err := argo.EncodePlatform(argo.Platform("xentium2"))
	if err != nil {
		t.Fatal(err)
	}
	resp1, _ := post(t, ts.URL+"/v1/compile", `{"usecase":"weaa","platform":"xentium2"}`)
	inline := fmt.Sprintf(`{"usecase":"weaa","platform_adl":%s}`, adl)
	resp2, _ := post(t, ts.URL+"/v1/compile", inline)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if h := resp2.Header.Get("X-Argo-Cache"); h != "hit" {
		t.Errorf("inline-ADL request cache header %q, want hit (canonicalization)", h)
	}
}

// TestUnlistedPlatformCanonicalization: a built-in size that is not
// listed (its ADL is encoded per request, not taken from the listed
// names' map) keys like its inline description too.
func TestUnlistedPlatformCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	adl, err := argo.EncodePlatform(argo.Platform("xentium3"))
	if err != nil {
		t.Fatal(err)
	}
	resp1, data := post(t, ts.URL+"/v1/compile", fmt.Sprintf(`{"usecase":"weaa","platform_adl":%s}`, adl))
	resp2, _ := post(t, ts.URL+"/v1/compile", `{"usecase":"weaa","platform":"xentium3"}`)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d: %s", resp1.StatusCode, resp2.StatusCode, data)
	}
	if h := resp2.Header.Get("X-Argo-Cache"); h != "hit" {
		t.Errorf("named request cache header %q, want hit", h)
	}
}

// TestSingleflightDedup: concurrent identical requests run the pipeline
// once; all callers get the shared result.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 8})
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	real := s.compile
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		if executions.Add(1) == 1 {
			close(started)
		}
		<-release
		return real(ctx, job)
	}

	const clients = 6
	type result struct {
		cache string
		body  []byte
	}
	results := make(chan result, clients)
	var wg sync.WaitGroup
	leaderGone := make(chan struct{})
	wg.Add(1)
	go func() { // leader
		defer wg.Done()
		defer close(leaderGone)
		resp, data := post(t, ts.URL+"/v1/compile", `{"usecase":"weaa"}`)
		results <- result{resp.Header.Get("X-Argo-Cache"), data}
	}()
	<-started
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := post(t, ts.URL+"/v1/compile", `{"usecase":"weaa"}`)
			results <- result{resp.Header.Get("X-Argo-Cache"), data}
		}()
	}
	// Wait until all followers are attached to the in-flight call, then
	// let the single execution finish.
	deadline := time.After(5 * time.Second)
	for s.cache.Stats().Dedups < clients-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d followers attached", s.cache.Stats().Dedups)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	close(results)

	if n := executions.Load(); n != 1 {
		t.Errorf("pipeline executed %d times for %d concurrent identical requests", n, clients)
	}
	counts := map[string]int{}
	var bodies [][]byte
	for r := range results {
		counts[r.cache]++
		bodies = append(bodies, r.body)
	}
	if counts["miss"] != 1 || counts["dedup"] != clients-1 {
		t.Errorf("cache headers %v, want 1 miss + %d dedup", counts, clients-1)
	}
	for _, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("a dedup follower and the leader got different bodies")
		}
	}
}

// TestTimeout: a pipeline run exceeding the request budget returns 504.
func TestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: 30 * time.Millisecond})
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, data := post(t, ts.URL+"/v1/compile", `{"usecase":"weaa"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Errorf("error body %q: %v", data, err)
	}
}

// TestPoolSaturation: with one worker busy, a different request that
// cannot get a slot within its budget returns 503.
func TestPoolSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Timeout: 50 * time.Millisecond})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	started := make(chan struct{})
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		close(started)
		<-release
		return nil, fmt.Errorf("held")
	}
	holdDone := make(chan struct{})
	go func() {
		defer close(holdDone)
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
			strings.NewReader(`{"usecase":"weaa"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	// A *different* request (different key — no dedup) must queue for
	// the worker slot and give up at its deadline.
	resp, data := post(t, ts.URL+"/v1/compile", `{"usecase":"polka"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, data)
	}
	if s.pool.Stats().Rejected != 1 {
		t.Errorf("pool stats %+v, want 1 rejected", s.pool.Stats())
	}
	unblock()
	<-holdDone
}

func TestSimulateEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, data := post(t, ts.URL+"/v1/simulate", `{"usecase":"weaa","platform":"xentium2","runs":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(data, &sim); err != nil {
		t.Fatal(err)
	}
	if len(sim.Runs) != 3 {
		t.Fatalf("%d runs, want 3", len(sim.Runs))
	}
	for _, run := range sim.Runs {
		if !run.WithinBound {
			t.Errorf("seed %d exceeded bound: %s", run.Seed, run.BoundError)
		}
		if run.Makespan <= 0 || run.Makespan > run.TotalBound {
			t.Errorf("seed %d: makespan %d vs bound %d", run.Seed, run.Makespan, run.TotalBound)
		}
	}
	// The compile went through the shared cache: a following /v1/compile
	// of the same model must hit.
	resp2, _ := post(t, ts.URL+"/v1/compile", `{"usecase":"weaa","platform":"xentium2"}`)
	if h := resp2.Header.Get("X-Argo-Cache"); h != "hit" {
		t.Errorf("compile after simulate: cache header %q, want hit", h)
	}
	if st := s.cache.Stats(); st.Misses != 1 {
		t.Errorf("cache stats %+v, want exactly 1 miss", st)
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := post(t, ts.URL+"/v1/optimize", `{"usecase":"weaa","platform":"xentium2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var opt OptimizeResponse
	if err := json.Unmarshal(data, &opt); err != nil {
		t.Fatal(err)
	}
	if opt.Best == nil || len(opt.History) == 0 {
		t.Fatalf("optimize response %+v", opt)
	}
	if opt.Best.TotalBound <= 0 {
		t.Errorf("best bound %d", opt.Best.TotalBound)
	}
	resp2, _ := post(t, ts.URL+"/v1/optimize", `{"usecase":"weaa","platform":"xentium2"}`)
	if h := resp2.Header.Get("X-Argo-Cache"); h != "hit" {
		t.Errorf("second optimize cache header %q, want hit", h)
	}
	// Parallelism is excluded from the content address (results are
	// deterministic), so a request differing only in parallelism hits
	// the same entry.
	resp3, _ := post(t, ts.URL+"/v1/optimize", `{"usecase":"weaa","platform":"xentium2","parallelism":2}`)
	if h := resp3.Header.Get("X-Argo-Cache"); h != "hit" {
		t.Errorf("parallelism=2 optimize cache header %q, want hit", h)
	}
	resp4, data4 := post(t, ts.URL+"/v1/optimize", `{"usecase":"weaa","platform":"xentium2","parallelism":-1}`)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("negative parallelism: status %d (%s), want 400", resp4.StatusCode, data4)
	}
}

func TestListEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := get(t, ts.URL+"/v1/platforms")
	if resp.StatusCode != 200 {
		t.Fatalf("platforms status %d", resp.StatusCode)
	}
	var plats []PlatformInfo
	if err := json.Unmarshal(data, &plats); err != nil {
		t.Fatal(err)
	}
	if len(plats) == 0 {
		t.Error("no platforms listed")
	}
	for _, p := range plats {
		if p.Name == "" || p.Cores <= 0 || p.Interconnect == "" {
			t.Errorf("platform entry %+v", p)
		}
	}

	resp, data = get(t, ts.URL+"/v1/usecases")
	if resp.StatusCode != 200 {
		t.Fatalf("usecases status %d", resp.StatusCode)
	}
	var ucs []UseCaseInfo
	if err := json.Unmarshal(data, &ucs); err != nil {
		t.Fatal(err)
	}
	if len(ucs) != 3 {
		t.Errorf("%d use cases, want 3", len(ucs))
	}

	resp, data = get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || !bytes.Contains(data, []byte(`"ok"`)) {
		t.Errorf("healthz %d %s", resp.StatusCode, data)
	}
}

func TestDebugVars(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/compile", `{"usecase":"weaa"}`)
	post(t, ts.URL+"/v1/compile", `{"usecase":"weaa"}`)

	resp, data := get(t, ts.URL+"/debug/vars")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var vars struct {
		Service struct {
			Requests map[string]int64 `json:"requests"`
			Cache    Stats            `json:"cache"`
			Pool     PoolStats        `json:"pool"`
			Latency  map[string]any   `json:"latency_us"`
		} `json:"service"`
	}
	if err := json.Unmarshal(data, &vars); err != nil {
		t.Fatalf("invalid /debug/vars JSON: %v\n%s", err, data)
	}
	sv := vars.Service
	if sv.Requests["compile"] != 2 {
		t.Errorf("compile requests %d, want 2", sv.Requests["compile"])
	}
	if sv.Cache.Misses != 1 || sv.Cache.Hits != 1 {
		t.Errorf("cache %+v, want 1 miss + 1 hit", sv.Cache)
	}
	if _, ok := sv.Latency["compile"]; !ok {
		t.Error("no compile latency histogram")
	}
	if sv.Pool.Workers <= 0 {
		t.Errorf("pool %+v", sv.Pool)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"empty", "/v1/compile", `{}`, 400},
		{"both model sources", "/v1/compile", `{"usecase":"weaa","source":"x"}`, 400},
		{"unknown usecase", "/v1/compile", `{"usecase":"nope"}`, 404},
		{"unknown platform", "/v1/compile", `{"usecase":"weaa","platform":"nope"}`, 404},
		{"platform with trailing text", "/v1/compile", `{"usecase":"weaa","platform":"xentium4foo"}`, 404},
		{"platform with leading zero", "/v1/compile", `{"usecase":"weaa","platform":"xentium04"}`, 404},
		{"platform with trailing blank", "/v1/compile", `{"usecase":"weaa","platform":"xentium16 "}`, 404},
		{"mesh with trailing text", "/v1/compile", `{"usecase":"weaa","platform":"leon3-2x2junk"}`, 404},
		{"hetero with trailing text", "/v1/simulate", `{"usecase":"weaa","platform":"hetero-2f2sz"}`, 404},
		{"mesh whose core count overflows", "/v1/compile", `{"usecase":"weaa","platform":"leon3-4294967296x4294967296"}`, 404},
		{"unknown policy", "/v1/compile", `{"usecase":"weaa","policy":"nope"}`, 400},
		{"unknown field", "/v1/compile", `{"usecase":"weaa","bogus":1}`, 400},
		{"source without entry", "/v1/compile", `{"source":"function y = f(x)\ny = x\nendfunction"}`, 400},
		{"bad arg kind", "/v1/compile", `{"source":"x","entry":"f","args":[{"kind":"cube"}]}`, 400},
		{"invalid json", "/v1/compile", `{`, 400},
		{"simulate without usecase", "/v1/simulate", `{"source":"x","entry":"f"}`, 400},
		{"too many runs", "/v1/simulate", `{"usecase":"weaa","runs":500}`, 400},
		{"runs rejected before expansion", "/v1/simulate", `{"usecase":"weaa","runs":4000000000}`, 400},
		{"unanalyzable source", "/v1/compile", `{"source":"function y = f(x)\ny = undefined_call(x)\nendfunction","entry":"f","args":[{"kind":"scalar"}]}`, 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d (%s), want %d", resp.StatusCode, data, tc.want)
			}
			var e ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q", data)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts.URL+"/v1/compile")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile status %d, want 405", resp.StatusCode)
	}
}

// TestStatusForPanics: a crashed computation is a server fault — a
// fan-out worker's panic, bare or wrapped, and a singleflight leader's
// panic map to 500, never to the 504 of an expired deadline.
func TestStatusForPanics(t *testing.T) {
	pe := &conc.PanicError{Value: "boom"}
	for _, err := range []error{pe, fmt.Errorf("optimize: %w", pe), memo.ErrPanicked} {
		if got := statusFor(err); got != http.StatusInternalServerError {
			t.Errorf("statusFor(%v) = %d, want 500", err, got)
		}
	}
}

// TestBatchPanickingCellIs500: a batch cell whose pipeline panics answers
// 500, and so do the cells the stopped fan-out never started, not the
// 504 of an expired deadline; the finished cell keeps its 200 row and
// the daemon keeps serving.
func TestBatchPanickingCellIs500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	real := s.compile
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		if job.usecaseName() == "weaa" {
			panic("injected pipeline panic")
		}
		return real(ctx, job)
	}
	cell := func(uc string) BatchCell {
		return BatchCell{CompileRequest: CompileRequest{UseCase: uc, Platform: "xentium2"}}
	}
	out := postBatch(t, ts.URL, &BatchRequest{Parallelism: 1,
		Cells: []BatchCell{cell("polka"), cell("weaa"), cell("egpws")}})
	for i, want := range []int{http.StatusOK, http.StatusInternalServerError, http.StatusInternalServerError} {
		if got := out.Cells[i].Status; got != want {
			t.Errorf("cell %d: status %d (%s), want %d", i, got, out.Cells[i].Error, want)
		}
	}
	if !strings.Contains(out.Cells[1].Error, "injected pipeline panic") {
		t.Errorf("panicking cell's error %q does not carry the panic value", out.Cells[1].Error)
	}
	if out.OK != 1 || out.Failed != 2 {
		t.Errorf("ok %d failed %d, want 1 and 2", out.OK, out.Failed)
	}
	if resp, body := post(t, ts.URL+"/v1/compile", `{"usecase":"egpws","platform":"xentium2"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after the panic: %d %s", resp.StatusCode, body)
	}
}
