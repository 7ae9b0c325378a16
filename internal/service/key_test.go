package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"argo/internal/scil"
	"argo/pkg/argo"
)

// sourceRequest is a raw-source compile request on xentium4.
func sourceRequest(src, entry string, args ...argo.ArgSpec) *CompileRequest {
	req := &CompileRequest{Source: src, Entry: entry, Platform: "xentium4"}
	for _, a := range args {
		req.Args = append(req.Args, FromArgSpec(a))
	}
	return req
}

// mustKey resolves req and keys it as a compile.
func mustKey(t *testing.T, s *Server, req *CompileRequest) string {
	t.Helper()
	job, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	key, err := job.key("compile")
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// layoutVariants re-saves src with only comments and layout changed: a
// leading revision comment, a blank and a comment line before every
// line, indentation by tabs, and a comment after every statement line.
// Pragma lines take no trailing comment (it would become part of the
// pragma's text), and neither do continued lines.
func layoutVariants(src string) []string {
	lines := strings.Split(src, "\n")
	var blank, tabs, trailing strings.Builder
	for i, l := range lines {
		code := strings.TrimSpace(l)
		fmt.Fprintf(&blank, "\n// note %d\n%s\n", i, l)
		fmt.Fprintf(&tabs, "\t\t%s\n", code)
		if code == "" || strings.HasPrefix(code, "//") || strings.HasSuffix(code, "..") {
			trailing.WriteString(l + "\n")
		} else {
			fmt.Fprintf(&trailing, "%s   // trailing %d\n", l, i)
		}
	}
	return []string{"// revision 7.1\n" + src, blank.String(), tabs.String(), trailing.String()}
}

// TestLayoutVariantsShareKeyAndResult: a model re-saved with only new
// comments, blank lines or indentation keys like the original, for the
// three use cases' sources and for generated programs, and a cache-free
// compile of each variant yields the original's result fingerprint, so
// sharing the entry is sound. A request naming the use case keys apart:
// its summary carries the use case's name and period.
func TestLayoutVariantsShareKeyAndResult(t *testing.T) {
	s := NewServer(Config{})
	plat := argo.Platform("xentium4")
	compileFP := func(src, entry string, args []argo.ArgSpec) string {
		t.Helper()
		opt := argo.DefaultOptions(entry, args, plat)
		opt.Passes.NoCache = true
		art, err := argo.CompileSource(src, opt)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		return argo.SessionResultFingerprint(art)
	}
	check := func(name, src, entry string, args []argo.ArgSpec, base string) {
		t.Helper()
		fp := compileFP(src, entry, args)
		for i, v := range layoutVariants(src) {
			if got := mustKey(t, s, sourceRequest(v, entry, args...)); got != base {
				t.Fatalf("%s: variant %d keys apart from the original:\n%s", name, i, v)
			}
			if got := compileFP(v, entry, args); got != fp {
				t.Fatalf("%s: variant %d compiles to fingerprint %s, original %s", name, i, got, fp)
			}
		}
	}
	for _, uc := range argo.UseCases() {
		base := mustKey(t, s, sourceRequest(uc.Source, uc.Entry, uc.Args...))
		if named := mustKey(t, s, &CompileRequest{UseCase: uc.Name, Platform: "xentium4"}); named == base {
			t.Fatalf("%s: the use case keys like a raw source of its text", uc.Name)
		}
		check(uc.Name, uc.Source, uc.Entry, uc.Args, base)
	}
	cfg := scil.DefaultGenConfig()
	args := []argo.ArgSpec{argo.MatrixArg(cfg.Rows, cfg.Cols)}
	for seed := int64(1); seed <= 200; seed++ {
		src := scil.GenerateSource(rand.New(rand.NewSource(seed)), cfg)
		base := mustKey(t, s, sourceRequest(src, "fuzz", args...))
		check(fmt.Sprintf("generated %d", seed), src, "fuzz", args, base)
	}
}

// TestSummaryNamesOwnUseCase: a raw-source request of a use case's text
// and a request naming the use case each get a summary with their own
// use case name and period budget, whichever filled the cache first.
func TestSummaryNamesOwnUseCase(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uc := argo.UseCaseByName("weaa")
	raw, _ := json.Marshal(sourceRequest(uc.Source, uc.Entry, uc.Args...))
	named := `{"usecase":"weaa","platform":"xentium4"}`
	for _, c := range []struct {
		body, usecase string
		period        int64
	}{{named, "weaa", uc.Period}, {string(raw), "", 0}, {named, "weaa", uc.Period}, {string(raw), "", 0}} {
		resp, data := post(t, ts.URL+"/v1/compile", c.body)
		var sum CompileSummary
		if err := json.Unmarshal(data, &sum); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if sum.UseCase != c.usecase || sum.PeriodBudget != c.period {
			t.Errorf("summary names use case %q with period %d, want %q and %d (cache %s)",
				sum.UseCase, sum.PeriodBudget, c.usecase, c.period, resp.Header.Get("X-Argo-Cache"))
		}
	}
}

// TestSingleEditsChangeKey: each single edit of the program or of the
// request's entry or argument shapes gives a new key.
func TestSingleEditsChangeKey(t *testing.T) {
	const base = `//@entry
function r = f(a)
  s = 0
  for i = 1:4
    s = s + (a(1, i) + 2) * 3
  end
  //@bound 8
  while s > 1
    s = s / 2
  end
  r = s
endfunction
`
	arg := argo.MatrixArg(1, 4)
	s := NewServer(Config{})
	want := mustKey(t, s, sourceRequest(base, "f", arg))
	edit := func(old, new string) string {
		if !strings.Contains(base, old) {
			t.Fatalf("edit %q: not in the base source", old)
		}
		return strings.Replace(base, old, new, 1)
	}
	cases := []struct {
		name string
		req  *CompileRequest
	}{
		{"literal value", sourceRequest(edit("* 3", "* 4"), "f", arg)},
		{"operator", sourceRequest(edit("s / 2", "s - 2"), "f", arg)},
		{"identifier", sourceRequest(strings.ReplaceAll(base, "s", "q"), "f", arg)},
		{"parenthesization", sourceRequest(edit("(a(1, i) + 2) * 3", "a(1, i) + 2 * 3"), "f", arg)},
		{"bound value", sourceRequest(edit("//@bound 8", "//@bound 9"), "f", arg)},
		{"pragma", sourceRequest(edit("//@entry", "//@inline"), "f", arg)},
		{"no pragma", sourceRequest(edit("//@entry\n", ""), "f", arg)},
		{"entry", sourceRequest(base+"\nfunction r = g(a)\n  r = a\nendfunction\n", "g", arg)},
		{"arg shape", sourceRequest(base, "f", argo.MatrixArg(4, 1))},
	}
	seen := map[string]string{want: "base"}
	for _, c := range cases {
		if _, err := argo.ParseSource(c.req.Source); err != nil {
			t.Fatalf("%s: edit does not parse: %v", c.name, err)
		}
		got := mustKey(t, s, c.req)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: keys like %s", c.name, prev)
		}
		seen[got] = c.name
	}
}

// TestParseErrorAnswersAsBefore: a source that fails to parse gets 422
// and the parse error as its body on every compile-shaped endpoint,
// without reaching the worker pool; resolving it parses nothing.
func TestParseErrorAnswersAsBefore(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var compiles atomic.Int64
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		compiles.Add(1)
		return nil, fmt.Errorf("unexpected compile")
	}
	const src = "function r = f(a)\n  r = (a + \nendfunction\n"
	_, perr := argo.ParseSource(src)
	if perr == nil {
		t.Fatal("source parses")
	}
	req := sourceRequest(src, "f", argo.MatrixArg(1, 4))
	job, err := s.resolve(req)
	if err != nil || job.model != nil {
		t.Fatalf("resolve: err %v, parsed %v", err, job.model != nil)
	}
	body, _ := json.Marshal(req)
	wantBody, _ := json.Marshal(ErrorResponse{Error: perr.Error()})
	for _, path := range []string{"/v1/compile", "/v1/optimize"} {
		resp, data := post(t, ts.URL+path, string(body))
		if resp.StatusCode != http.StatusUnprocessableEntity || strings.TrimSpace(string(data)) != string(wantBody) {
			t.Errorf("%s: %d %s, want 422 %s", path, resp.StatusCode, data, wantBody)
		}
	}
	resp, data := post(t, ts.URL+"/v1/batch", fmt.Sprintf(`{"cells":[%s]}`, body))
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	if c := br.Cells[0]; c.Status != http.StatusUnprocessableEntity || c.Error != perr.Error() {
		t.Errorf("batch cell %+v, want 422 %q", c, perr.Error())
	}
	if n := compiles.Load(); n != 0 {
		t.Errorf("%d compiles ran for an unparsable source", n)
	}
}

// TestDedupFollowerGetsOwnError: two concurrent requests whose sources
// differ only in a leading comment share a key, and so a singleflight.
// The model fails to lower, and each request must still get its own
// line numbers: the follower recomputes instead of taking the leader's
// error.
func TestDedupFollowerGetsOwnError(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const src = "function r = f(a)\n  r = 0\n  n = a(1, 1)\n  for i = 1:n\n    r = r + i\n  end\nendfunction\n"
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	real := s.compile
	s.compile = func(ctx context.Context, job *compileJob) (*argo.Artifacts, error) {
		leader := false
		once.Do(func() { leader = true })
		if leader {
			close(entered)
			<-release
		}
		return real(ctx, job)
	}
	leadBody, _ := json.Marshal(sourceRequest(src, "f", argo.MatrixArg(1, 4)))
	followBody, _ := json.Marshal(sourceRequest("// revision 2\n"+src, "f", argo.MatrixArg(1, 4)))
	type reply struct {
		status int
		err    string
	}
	send := func(body []byte, out chan<- reply) {
		resp, data := post(t, ts.URL+"/v1/compile", string(body))
		var er ErrorResponse
		_ = json.Unmarshal(data, &er)
		out <- reply{resp.StatusCode, er.Error}
	}
	leadc, followc := make(chan reply, 1), make(chan reply, 1)
	go send(leadBody, leadc)
	<-entered
	go send(followBody, followc)
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.Stats().Dedups == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	lead, follow := <-leadc, <-followc
	if lead.status != http.StatusUnprocessableEntity || follow.status != http.StatusUnprocessableEntity {
		t.Fatalf("statuses %d / %d, want 422", lead.status, follow.status)
	}
	if !strings.Contains(lead.err, "ir:4:3:") || !strings.Contains(follow.err, "ir:5:3:") {
		t.Fatalf("errors %q / %q, want each at its own line (4 and 5)", lead.err, follow.err)
	}
}

// textKey is the job key as it was when it hashed the model's text.
//
//go:noinline
func textKey(j *compileJob, kind string) string {
	return HashKey("argo/v1", kind, j.source, j.entry, j.wireArgs(),
		j.canonicalADL, j.policy.String(), j.maxTasks, j.wcetEngine)
}

// TestUseCaseKeyAllocs: resolving and keying a use-case request
// allocates no more than when the key hashed the use case's text.
func TestUseCaseKeyAllocs(t *testing.T) {
	s := NewServer(Config{})
	req := &CompileRequest{UseCase: "polka", Platform: "xentium4"}
	mustKey(t, s, req) // parse the use cases once
	kind := "compile"
	byText := testing.AllocsPerRun(200, func() {
		j, _ := s.resolve(req)
		_ = textKey(j, kind)
	})
	byProgram := testing.AllocsPerRun(200, func() {
		j, _ := s.resolve(req)
		_, _ = j.key(kind)
	})
	if byProgram > byText {
		t.Errorf("resolve+key allocates %.0f, %.0f when keyed by text", byProgram, byText)
	}
}
