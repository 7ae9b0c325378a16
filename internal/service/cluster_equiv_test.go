package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"argo/internal/cluster"
	"argo/pkg/argo"
)

// startReplicas starts n in-process analysis replicas. wrap, when
// non-nil, wraps replica i's handler (fault injection).
func startReplicas(t testing.TB, n int, cfg Config, wrap func(i int, h http.Handler) http.Handler) ([]string, []*Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		s := NewServer(cfg)
		var h http.Handler = s.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		servers[i] = s
	}
	return urls, servers
}

// startCoordinator starts a coordinator server over the given peers.
func startCoordinator(t testing.TB, peers []string, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Peers = peers
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// compileCell fetches one compile and returns its summary (fatal on
// non-200).
func compileCell(t *testing.T, baseURL, usecase, platform string) *CompileSummary {
	t.Helper()
	body := fmt.Sprintf(`{"usecase":%q,"platform":%q}`, usecase, platform)
	resp, data := post(t, baseURL+"/v1/compile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s x %s: status %d: %s", usecase, platform, resp.StatusCode, data)
	}
	var sum CompileSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("%s x %s: %v", usecase, platform, err)
	}
	if sum.Fingerprint == "" {
		t.Fatalf("%s x %s: empty fingerprint", usecase, platform)
	}
	return &sum
}

func matrixCells() (usecases, platforms []string) {
	for _, u := range argo.UseCases() {
		usecases = append(usecases, u.Name)
	}
	return usecases, argo.PlatformNames()
}

// TestClusterEquivalenceMatrix is the differential proof at the heart
// of this layer: for the full use-case×platform matrix, a 3-replica
// cluster behind a coordinator returns the exact ResultFingerprint the
// single-process oracle returns — the summaries are decided bit-for-bit
// identically no matter which replica computed them. Cells are fetched
// both sequentially and with a concurrent client burst (parallelism 1
// and N), and a refetch must hit the coordinator's local tier with the
// same fingerprint.
func TestClusterEquivalenceMatrix(t *testing.T) {
	_, oracleURL := startCoordinatorlessOracle(t)
	// Unbounded queues: the point here is equivalence under a full-matrix
	// burst, not load shedding (that behavior has its own tests).
	peers, _ := startReplicas(t, 3, Config{MaxQueue: -1}, nil)
	coord, coordURL := startCoordinator(t, peers, Config{MaxQueue: -1})

	usecases, platforms := matrixCells()
	type cell struct{ u, p string }
	var cells []cell
	for _, u := range usecases {
		for _, p := range platforms {
			cells = append(cells, cell{u, p})
		}
	}

	// Oracle pass (sequential) and cluster pass (concurrent burst:
	// every cell in flight at once exercises the sharded fan-out under
	// -race).
	oracle := make(map[cell]*CompileSummary, len(cells))
	for _, c := range cells {
		oracle[c] = compileCell(t, oracleURL, c.u, c.p)
	}
	got := make(map[cell]*CompileSummary, len(cells))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		go func(c cell) {
			defer wg.Done()
			sum := compileCell(t, coordURL, c.u, c.p)
			mu.Lock()
			got[c] = sum
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	for _, c := range cells {
		want, have := oracle[c], got[c]
		if have == nil {
			continue // that cell's fetch already failed the test
		}
		if have.Fingerprint != want.Fingerprint {
			t.Errorf("%s x %s: cluster fingerprint %.12s != oracle %.12s",
				c.u, c.p, have.Fingerprint, want.Fingerprint)
		}
		if have.TotalBound != want.TotalBound || have.WCETSpeedup != want.WCETSpeedup {
			t.Errorf("%s x %s: bound %d/%f != oracle %d/%f",
				c.u, c.p, have.TotalBound, have.WCETSpeedup, want.TotalBound, want.WCETSpeedup)
		}
	}

	// Sequential refetch: now served from the coordinator's local tier,
	// still the oracle fingerprint.
	for _, c := range cells[:6] {
		again := compileCell(t, coordURL, c.u, c.p)
		if again.Fingerprint != oracle[c].Fingerprint {
			t.Errorf("%s x %s: refetch fingerprint diverged", c.u, c.p)
		}
	}
	if st := coord.Cluster().Stats(); st.LocalHits == 0 {
		t.Errorf("refetches never hit the coordinator tier: %+v", st)
	}
}

// startCoordinatorlessOracle is a plain single-process server — the
// ground truth every cluster result is compared against.
func startCoordinatorlessOracle(t *testing.T) (*Server, string) {
	t.Helper()
	s, ts := newTestServer(t, Config{})
	return s, ts.URL
}

// testServerURL boots a plain single-process server and returns its URL.
func testServerURL(t *testing.T) string {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	return ts.URL
}

// optimizeCell fetches one optimize response.
func optimizeCell(t *testing.T, baseURL, usecase, platform string, parallelism int) *OptimizeResponse {
	t.Helper()
	body := fmt.Sprintf(`{"usecase":%q,"platform":%q,"parallelism":%d}`, usecase, platform, parallelism)
	resp, data := post(t, baseURL+"/v1/optimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize %s x %s: status %d: %s", usecase, platform, resp.StatusCode, data)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestClusterOptimizeEquivalence proves the remote candidate worker
// seam: a coordinator fanning whole optimizer-ladder candidates out to
// replicas over /v1/candidate reduces to the exact response the
// in-process ladder produces — same best fingerprint, same bound, same
// iteration history — at per-replica width 1 and the default width.
func TestClusterOptimizeEquivalence(t *testing.T) {
	_, oracleURL := startCoordinatorlessOracle(t)
	peers, _ := startReplicas(t, 3, Config{}, nil)

	cells := []struct{ u, p string }{
		{"polka", "xentium4"},
		{"weaa", "xentium2"},
		{"egpws", "leon3-2x2"},
	}
	for _, par := range []int{1, 0} {
		// A fresh coordinator per parallelism degree so the distributed
		// ladder actually re-runs instead of hitting the first run's
		// coordinator cache (the replicas' candidate caches stay warm —
		// that is the production shape).
		_, coordURL := startCoordinator(t, peers, Config{})
		for _, c := range cells {
			want := optimizeCell(t, oracleURL, c.u, c.p, 1)
			got := optimizeCell(t, coordURL, c.u, c.p, par)
			if got.Best.Fingerprint != want.Best.Fingerprint {
				t.Errorf("par %d, %s x %s: best fingerprint %.12s != oracle %.12s",
					par, c.u, c.p, got.Best.Fingerprint, want.Best.Fingerprint)
			}
			if got.Best.TotalBound != want.Best.TotalBound {
				t.Errorf("par %d, %s x %s: best bound %d != %d",
					par, c.u, c.p, got.Best.TotalBound, want.Best.TotalBound)
			}
			if !reflect.DeepEqual(got.History, want.History) {
				t.Errorf("par %d, %s x %s: history diverged:\n got %+v\nwant %+v",
					par, c.u, c.p, got.History, want.History)
			}
		}
	}
}

// TestCandidateEndpointMatchesLadder pins the replica side of the seam
// on a single process: evaluating each default candidate through
// POST /v1/candidate reproduces the in-process ladder's per-iteration
// bounds exactly.
func TestCandidateEndpointMatchesLadder(t *testing.T) {
	ts := testServerURL(t)
	want := optimizeCell(t, ts, "polka", "xentium4", 1)

	plat := argo.Platform("xentium4")
	cands := argo.DefaultCandidates(plat.NumCores())
	if len(cands) != len(want.History) {
		t.Fatalf("%d candidates vs %d history rows", len(cands), len(want.History))
	}
	var bestFP string
	var bestBound int64 = -1
	for i, cand := range cands {
		cj := FromCandidate(cand)
		body, err := json.Marshal(&CandidateRequest{
			CompileRequest: CompileRequest{UseCase: "polka", Platform: "xentium4"},
			Candidate:      cj,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := post(t, ts+"/v1/candidate", string(body))
		row := want.History[i]
		if row.Error != "" {
			if resp.StatusCode == http.StatusOK {
				t.Fatalf("candidate %q succeeded; ladder recorded error %q", cand.Name, row.Error)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("candidate %q: status %d: %s", cand.Name, resp.StatusCode, data)
		}
		var sum CompileSummary
		if err := json.Unmarshal(data, &sum); err != nil {
			t.Fatal(err)
		}
		if sum.TotalBound != row.Bound {
			t.Errorf("candidate %q: bound %d, ladder recorded %d", cand.Name, sum.TotalBound, row.Bound)
		}
		if bestBound < 0 || sum.TotalBound < bestBound {
			bestBound, bestFP = sum.TotalBound, sum.Fingerprint
		}
	}
	if bestFP != want.Best.Fingerprint {
		t.Errorf("reduced best fingerprint %.12s != ladder best %.12s", bestFP, want.Best.Fingerprint)
	}

	// Round-trip sanity for the candidate wire form.
	for _, cand := range cands {
		back, err := FromCandidate(cand).ToCandidate()
		if err != nil {
			t.Fatalf("round-trip %q: %v", cand.Name, err)
		}
		if !reflect.DeepEqual(back, cand) {
			t.Errorf("candidate %q round-trip mismatch: %+v vs %+v", cand.Name, back, cand)
		}
	}
	if _, err := (CandidateJSON{Policy: 99}).ToCandidate(); err == nil {
		t.Error("out-of-range policy accepted")
	}
}

// postBatch posts one batch request.
func postBatch(t *testing.T, baseURL string, req *BatchRequest) *BatchResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, baseURL+"/v1/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestBatchEqualsSequential proves batch semantics against the
// cell-by-cell endpoints on both a single process and a cluster:
// identical summaries for good cells, per-cell failures (unknown use
// case, unknown platform) with stand-alone statuses for bad ones, and
// the envelope itself always 200.
func TestBatchEqualsSequential(t *testing.T) {
	_, oracleURL := startCoordinatorlessOracle(t)
	peers, _ := startReplicas(t, 3, Config{}, nil)
	_, coordURL := startCoordinator(t, peers, Config{})

	req := &BatchRequest{Cells: []BatchCell{
		{CompileRequest: CompileRequest{UseCase: "polka", Platform: "xentium4"}},
		{CompileRequest: CompileRequest{UseCase: "weaa", Platform: "xentium2"}, Op: "compile"},
		{CompileRequest: CompileRequest{UseCase: "no-such-usecase", Platform: "xentium4"}},
		{CompileRequest: CompileRequest{UseCase: "polka", Platform: "xentium4"}, Op: "optimize"},
		{CompileRequest: CompileRequest{UseCase: "egpws", Platform: "no-such-platform"}},
		{CompileRequest: CompileRequest{UseCase: "egpws", Platform: "leon3-2x2"}},
	}}

	for name, url := range map[string]string{"single": oracleURL, "cluster": coordURL} {
		t.Run(name, func(t *testing.T) {
			got := postBatch(t, url, req)
			if len(got.Cells) != len(req.Cells) {
				t.Fatalf("%d cell results for %d cells", len(got.Cells), len(req.Cells))
			}
			if got.OK != 4 || got.Failed != 2 {
				t.Fatalf("ok/failed = %d/%d, want 4/2", got.OK, got.Failed)
			}
			// Good compile cells: bit-identical to the stand-alone call.
			for _, i := range []int{0, 1, 5} {
				cell := req.Cells[i]
				want := compileCell(t, oracleURL, cell.UseCase, cell.Platform)
				res := got.Cells[i]
				if res.Status != http.StatusOK || res.Compile == nil {
					t.Fatalf("cell %d: %+v", i, res)
				}
				if res.Compile.Fingerprint != want.Fingerprint {
					t.Errorf("cell %d: fingerprint %.12s != sequential %.12s",
						i, res.Compile.Fingerprint, want.Fingerprint)
				}
				if res.Index != i || res.Op != "compile" {
					t.Errorf("cell %d: index/op %d/%q", i, res.Index, res.Op)
				}
			}
			// Optimize cell: matches the stand-alone optimizer.
			wantOpt := optimizeCell(t, oracleURL, "polka", "xentium4", 1)
			if res := got.Cells[3]; res.Optimize == nil ||
				res.Optimize.Best.Fingerprint != wantOpt.Best.Fingerprint ||
				!reflect.DeepEqual(res.Optimize.History, wantOpt.History) {
				t.Errorf("optimize cell diverged from sequential: %+v", res)
			}
			// Failed cells: stand-alone status, populated error, no result.
			for _, i := range []int{2, 4} {
				res := got.Cells[i]
				if res.Status != http.StatusNotFound || res.Error == "" ||
					res.Compile != nil || res.Optimize != nil {
					t.Errorf("bad cell %d: %+v", i, res)
				}
			}
		})
	}
}

// TestBatchValidation pins the envelope-level failure modes.
func TestBatchValidation(t *testing.T) {
	ts := testServerURL(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{"cells":[]}`},
		{"missing", `{}`},
		{"badop", `{"cells":[{"usecase":"polka","op":"simulate"}]}`},
		{"negpar", `{"cells":[{"usecase":"polka"}],"parallelism":-1}`},
		{"negtimeout", `{"cells":[{"usecase":"polka"}],"timeout_ms":-5}`},
	} {
		resp, data := post(t, ts+"/v1/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, data)
		}
	}
	big := &BatchRequest{Cells: make([]BatchCell, maxBatchCells+1)}
	for i := range big.Cells {
		big.Cells[i] = BatchCell{CompileRequest: CompileRequest{UseCase: "polka"}}
	}
	body, _ := json.Marshal(big)
	resp, _ := post(t, ts+"/v1/batch", string(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", resp.StatusCode)
	}
}

// TestClusterInfoEndpoints pins the topology surface in both modes.
func TestClusterInfoEndpoints(t *testing.T) {
	single := testServerURL(t)
	resp, data := get(t, single+"/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var info map[string]any
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info["mode"] != "single" {
		t.Fatalf("mode = %v", info["mode"])
	}
	// Membership changes are a coordinator-only operation.
	resp, _ = post(t, single+"/v1/cluster/members", `{"members":["http://x"]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("single-mode members swap: status %d, want 409", resp.StatusCode)
	}

	peers, _ := startReplicas(t, 2, Config{}, nil)
	_, coordURL := startCoordinator(t, peers, Config{})
	resp, data = get(t, coordURL+"/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cinfo struct {
		Mode    string                  `json:"mode"`
		Members []string                `json:"members"`
		Health  []cluster.ReplicaHealth `json:"health"`
	}
	if err := json.Unmarshal(data, &cinfo); err != nil {
		t.Fatal(err)
	}
	if cinfo.Mode != "coordinator" || len(cinfo.Members) != 2 || len(cinfo.Health) != 2 {
		t.Fatalf("cluster info %+v", cinfo)
	}
	for _, tc := range []string{`{"members":[]}`, `{"members":["ftp://x"]}`} {
		resp, _ = post(t, coordURL+"/v1/cluster/members", tc)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", tc, resp.StatusCode)
		}
	}
}
