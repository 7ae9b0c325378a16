package service

import (
	"bufio"
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

func createSession(t *testing.T, url, body string) *SessionSummary {
	t.Helper()
	resp, data := post(t, url+"/v1/session", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d: %s", resp.StatusCode, data)
	}
	var sum SessionSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Session == "" {
		t.Fatal("create returned no session id")
	}
	return &sum
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The pass cache stores a key on its second sighting. A compile of
	// the model sights its passes first, so the session's create stores
	// them and the edit below can restore the ones it leaves clean, in
	// whatever order the package's tests run.
	if resp, data := post(t, ts.URL+"/v1/compile", `{"usecase":"polka","platform":"xentium4"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d: %s", resp.StatusCode, data)
	}
	sum := createSession(t, ts.URL, `{"usecase":"polka","platform":"xentium4","verify":true}`)
	if !sum.Verified {
		t.Fatal("create with verify:true not verified")
	}
	if sum.Compile == nil || sum.Compile.TotalBound <= 0 {
		t.Fatalf("create summary incomplete: %+v", sum.Compile)
	}
	id := sum.Session

	// GET returns the canonical source and current state.
	resp, data := get(t, ts.URL+"/v1/session/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d: %s", resp.StatusCode, data)
	}
	var got SessionGetResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Source == "" || got.Fingerprint != sum.Fingerprint {
		t.Fatalf("get mismatch: fingerprint %s vs create %s", got.Fingerprint, sum.Fingerprint)
	}

	// Edit: the incremental path must skip clean passes and report the
	// bound move; verify makes it differentially checked server-side.
	resp, data = post(t, ts.URL+"/v1/session/"+id+"/edit",
		`{"op":"set-param","param":"shared.access_cycles","value":40,"verify":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit: %d: %s", resp.StatusCode, data)
	}
	var edited SessionSummary
	if err := json.Unmarshal(data, &edited); err != nil {
		t.Fatal(err)
	}
	if !edited.Verified {
		t.Fatal("edit with verify:true not verified")
	}
	if edited.PassesSkipped == 0 {
		t.Fatalf("edit skipped no passes (reran %d): pass cache ineffective", edited.PassesReran)
	}
	if edited.BoundDelta == 0 || len(edited.ChangedTasks) == 0 {
		t.Fatalf("edit reported no effect: delta=%d changed=%v", edited.BoundDelta, edited.ChangedTasks)
	}

	// The listing shows the session with one edit.
	resp, data = get(t, ts.URL+"/v1/session")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d: %s", resp.StatusCode, data)
	}
	var infos []SessionInfoJSON
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != id || infos[0].Edits != 1 {
		t.Fatalf("listing wrong: %+v", infos)
	}

	// Delete, then every per-session route answers 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp2.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/session/"+id)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/session/"+id+"/edit", `{"op":"set-policy","policy":"oblivious"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("edit after delete: %d, want 404", resp.StatusCode)
	}
}

func TestSessionEvictionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	first := createSession(t, ts.URL, `{"usecase":"polka"}`)
	second := createSession(t, ts.URL, `{"usecase":"polka"}`)
	resp, _ := get(t, ts.URL+"/v1/session/"+first.Session)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still answers: %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/session/"+second.Session)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live session gone: %d", resp.StatusCode)
	}
}

func TestSessionSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sum := createSession(t, ts.URL, `{"usecase":"polka","faults":{"seed":3,"access_jitter":0.5}}`)

	resp, data := post(t, ts.URL+"/v1/session/"+sum.Session+"/simulate", `{"runs":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d: %s", resp.StatusCode, data)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(data, &sim); err != nil {
		t.Fatal(err)
	}
	if len(sim.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(sim.Runs))
	}
	for _, run := range sim.Runs {
		if !run.WithinBound {
			t.Fatalf("seed %d: in-budget fault injection broke the bound: %s", run.Seed, run.BoundError)
		}
		if run.Faults == nil || run.Faults.AccessFaults == 0 {
			t.Fatalf("seed %d: session fault spec not applied: %+v", run.Seed, run.Faults)
		}
	}

	// Raw-source sessions have no input generators: simulate is a 400.
	raw := createSession(t, ts.URL,
		`{"source":"function y = main(x)\n  y = x * 2\nendfunction","entry":"main","args":[{"kind":"matrix","rows":4,"cols":4}]}`)
	resp, _ = post(t, ts.URL+"/v1/session/"+raw.Session+"/simulate", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw-source simulate: %d, want 400", resp.StatusCode)
	}
}

// TestSessionSimulateOneSnapshot: a session simulate reads the session
// once, so set-param edits that commit while its 100 runs execute
// change neither the artifacts the later runs use nor the summary that
// describes them: every run's total_bound is compile.total_bound.
func TestSessionSimulateOneSnapshot(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, `{"usecase":"polka","platform":"xentium4"}`).Session

	// The edit loop alternates between values that move the bound; the
	// session's result memo serves revisits, so edits commit quickly.
	stop, editing := make(chan struct{}), make(chan struct{})
	signal := sync.OnceFunc(func() { close(editing) })
	edits := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := argo.SessionEdit{Op: argo.SessionOpSetParam, Param: "shared.access_cycles", Value: float64(20 + 10*(edits%4))}
			if _, err := srv.sessions.Apply(context.Background(), id, e, argo.SessionApplyOptions{}); err != nil {
				t.Errorf("edit %d: %v", edits, err)
				return
			}
			edits++
			signal()
		}
	}()
	<-editing
	resp, data := post(t, ts.URL+"/v1/session/"+id+"/simulate", `{"runs":100}`)
	close(stop)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d: %s", resp.StatusCode, data)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(data, &sim); err != nil {
		t.Fatal(err)
	}
	if len(sim.Runs) != 100 {
		t.Fatalf("got %d runs, want 100", len(sim.Runs))
	}
	t.Logf("%d edits committed around the simulate", edits)
	for _, run := range sim.Runs {
		if run.TotalBound != sim.Compile.TotalBound {
			t.Fatalf("seed %d ran against total_bound %d; the compile summary says %d",
				run.Seed, run.TotalBound, sim.Compile.TotalBound)
		}
		if !run.WithinBound {
			t.Fatalf("seed %d: %s", run.Seed, run.BoundError)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	return events
}

func TestSessionEditStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sum := createSession(t, ts.URL, `{"usecase":"polka"}`)

	resp, err := http.Post(ts.URL+"/v1/session/"+sum.Session+"/edit", "application/json",
		strings.NewReader(`{"op":"set-param","param":"shared.access_cycles","value":35,"stream":true,"verify":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	events := readSSE(t, bufio.NewScanner(resp.Body))

	passes, kinds := 0, map[string]int{}
	var result *SessionSummary
	for _, ev := range events {
		kinds[ev.event]++
		switch ev.event {
		case "pass":
			var pe SessionPassEvent
			if err := json.Unmarshal([]byte(ev.data), &pe); err != nil || pe.Pass == "" {
				t.Fatalf("bad pass event %q: %v", ev.data, err)
			}
			passes++
		case "result":
			var s SessionSummary
			if err := json.Unmarshal([]byte(ev.data), &s); err != nil {
				t.Fatalf("bad result event %q: %v", ev.data, err)
			}
			result = &s
		case "error", "shutdown":
			t.Fatalf("unexpected %s event: %s", ev.event, ev.data)
		}
	}
	if passes == 0 {
		t.Fatal("stream delivered no pass events")
	}
	if result == nil || !result.Verified {
		t.Fatalf("stream result missing or unverified: %+v", result)
	}
	if kinds["done"] != 1 {
		t.Fatalf("stream not terminated with done: %v", kinds)
	}
	// Every executed pass shows up as an event (hit or ran).
	if passes != result.PassesSkipped+result.PassesReran {
		t.Fatalf("%d pass events vs %d+%d accounted passes",
			passes, result.PassesSkipped, result.PassesReran)
	}
}

// TestSessionDrainClosesStream is the graceful-shutdown contract for
// long-lived streams: when the server starts draining mid-edit, the
// active SSE stream is flushed and closed with a terminal "shutdown"
// event instead of hanging until the shutdown grace expires.
func TestSessionDrainClosesStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sum := createSession(t, ts.URL, `{"usecase":"polka"}`)

	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	orig := s.sessionApply
	s.sessionApply = func(ctx context.Context, id string, e argo.SessionEdit, aopt argo.SessionApplyOptions) (*argo.SessionEditResult, error) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return orig(ctx, id, e, aopt)
	}
	defer close(release)

	type streamOut struct {
		events []sseEvent
		err    error
	}
	outc := make(chan streamOut, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/session/"+sum.Session+"/edit", "application/json",
			strings.NewReader(`{"op":"set-policy","policy":"oblivious","stream":true}`))
		if err != nil {
			outc <- streamOut{err: err}
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
			outc <- streamOut{err: fmt.Errorf("content type %q", ct)}
			return
		}
		sc := bufio.NewScanner(resp.Body)
		outc <- streamOut{events: readSSE(t, sc)}
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("edit never reached the apply seam")
	}
	s.StartDraining()

	select {
	case out := <-outc:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.events) == 0 {
			t.Fatal("stream closed without any event")
		}
		last := out.events[len(out.events)-1]
		if last.event != "shutdown" {
			t.Fatalf("stream ended with %q event, want shutdown (events: %+v)", last.event, out.events)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after StartDraining")
	}

	// Draining is also visible to the load balancer.
	resp, _ := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestSessionEditStreamPanicIsError: a panic inside a streaming edit's
// apply goroutine ends the stream with "error" (carrying the panic
// value) then "done", frees the worker slot, and the daemon serves the
// next request.
func TestSessionEditStreamPanicIsError(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	sum := createSession(t, ts.URL, `{"usecase":"polka"}`)
	orig := s.sessionApply
	s.sessionApply = func(context.Context, string, argo.SessionEdit, argo.SessionApplyOptions) (*argo.SessionEditResult, error) {
		panic("injected pass panic")
	}

	resp, err := http.Post(ts.URL+"/v1/session/"+sum.Session+"/edit", "application/json",
		strings.NewReader(`{"op":"set-policy","policy":"oblivious","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, bufio.NewScanner(resp.Body))
	resp.Body.Close()
	if n := len(events); n < 2 || events[n-2].event != "error" || events[n-1].event != "done" {
		t.Fatalf("stream events %+v, want ... error, done", events)
	}
	if data := events[len(events)-2].data; !strings.Contains(data, "injected pass panic") {
		t.Fatalf("error event %s does not carry the panic value", data)
	}

	for deadline := time.Now().Add(5 * time.Second); s.pool.Stats().InFlight != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the panicking edit never released its worker slot")
		}
		time.Sleep(time.Millisecond)
	}
	s.sessionApply = orig
	if resp, data := post(t, ts.URL+"/v1/session/"+sum.Session+"/edit", `{"op":"set-policy","policy":"oblivious"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("edit after the panic: %d %s", resp.StatusCode, data)
	}
}

func TestSessionEditBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sum := createSession(t, ts.URL, `{"usecase":"polka"}`)

	cases := []struct {
		body string
		want int
	}{
		{`{"op":"frobnicate"}`, http.StatusUnprocessableEntity},
		{`{"op":"set-param","param":"nope","value":1}`, http.StatusUnprocessableEntity},
		{`{"op":"set-policy","policy":"warp-speed"}`, http.StatusBadRequest},
		{`{"op":"set-faults"}`, http.StatusBadRequest},
		{`{"op":"set-param","param":"shared.access_cycles","value":30,"bogus":true}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, data := post(t, ts.URL+"/v1/session/"+sum.Session+"/edit", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: got %d want %d (%s)", c.body, resp.StatusCode, c.want, data)
		}
	}
	// The session survived all of it.
	resp, _ := get(t, ts.URL+"/v1/session/"+sum.Session)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session gone after bad edits: %d", resp.StatusCode)
	}
}

func TestSessionMetricsExported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	liveBefore, _, _, editsBefore := argo.SessionCounters()
	sum := createSession(t, ts.URL, `{"usecase":"polka"}`)
	resp, _ := post(t, ts.URL+"/v1/session/"+sum.Session+"/edit",
		`{"op":"set-param","param":"shared.access_cycles","value":25}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit: %d", resp.StatusCode)
	}
	live, _, _, edits := argo.SessionCounters()
	if live != liveBefore+1 || edits != editsBefore+1 {
		t.Fatalf("counters did not move: live %d->%d edits %d->%d", liveBefore, live, editsBefore, edits)
	}

	// /debug/vars serves the session and pass-cache expvars.
	resp, data := get(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars: %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(data, &vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"argo_session_live", "argo_session_evicted", "argo_session_edits",
		"argo_session_passes_skipped", "argo_session_passes_reran",
		"argo_pass_cache_entries", "argo_pass_cache_evictions",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %s", key)
		}
	}
}
