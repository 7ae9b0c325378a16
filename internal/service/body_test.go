package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"argo/pkg/argo"
)

// serve sends one POST through s's handler and returns the recorded
// response.
func serve(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// cachedResult returns the compile entry req keys to, or nil.
func cachedResult(t *testing.T, s *Server, req *CompileRequest) *compileResult {
	t.Helper()
	v, ok := s.cache.Get(mustKey(t, s, req))
	if !ok {
		return nil
	}
	return v.(*compileResult)
}

// TestCompileHitBodyMatchesMiss: a hit writes the body the miss wrote,
// byte for byte, for a named use case and for comment variants of a raw
// source. The miss stores no body; the first hit stores the one later
// hits write.
func TestCompileHitBodyMatchesMiss(t *testing.T) {
	s := NewServer(Config{})
	uc := argo.UseCaseByName("weaa")
	raw := func(comment string) (*CompileRequest, string) {
		req := sourceRequest(comment+uc.Source, uc.Entry, uc.Args...)
		body, _ := json.Marshal(req)
		return req, string(body)
	}
	named := &CompileRequest{UseCase: "weaa", Platform: "xentium2"}
	namedBody := `{"usecase":"weaa","platform":"xentium2"}`
	raw0, rawBody0 := raw("")
	_, rawBody1 := raw("// revision 1\n")
	_, rawBody2 := raw("// revision 2\n")
	for _, c := range []struct {
		req    *CompileRequest
		bodies []string
	}{
		{named, []string{namedBody, namedBody, namedBody}},
		{raw0, []string{rawBody0, rawBody1, rawBody2}},
	} {
		var first []byte
		for i, body := range c.bodies {
			rec := serve(s, "/v1/compile", body)
			want := []string{"miss", "hit", "hit"}[i]
			if rec.Code != http.StatusOK || rec.Header().Get("X-Argo-Cache") != want {
				t.Fatalf("request %d: status %d, cache %q, want 200 and %s: %s",
					i, rec.Code, rec.Header().Get("X-Argo-Cache"), want, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
				t.Errorf("request %d: content type %q", i, ct)
			}
			res := cachedResult(t, s, c.req)
			if i == 0 {
				first = rec.Body.Bytes()
				if res.body != nil {
					t.Fatal("the miss stored a body")
				}
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(res.sum); err != nil || !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("the miss wrote other than the indented summary (%v)", err)
				}
				continue
			}
			if !bytes.Equal(rec.Body.Bytes(), first) {
				t.Fatalf("request %d: hit body differs from the miss's:\n%s\n--- miss\n%s", i, rec.Body, first)
			}
			if !bytes.Equal(res.body, first) {
				t.Fatalf("request %d: stored body differs from the miss's", i)
			}
		}
	}
}

// TestConcurrentFirstHitsStoreOneBody: hits that reach an entry at once
// all write the miss's bytes, and callers racing on an entry share one
// encoding.
func TestConcurrentFirstHitsStoreOneBody(t *testing.T) {
	s := NewServer(Config{})
	const body = `{"usecase":"polka","platform":"xentium4"}`
	miss := serve(s, "/v1/compile", body)
	if miss.Code != http.StatusOK || miss.Header().Get("X-Argo-Cache") != "miss" {
		t.Fatalf("first request: status %d, cache %q", miss.Code, miss.Header().Get("X-Argo-Cache"))
	}
	var wg sync.WaitGroup
	hits := make([]*httptest.ResponseRecorder, 8)
	for i := range hits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits[i] = serve(s, "/v1/compile", body)
		}()
	}
	wg.Wait()
	for i, rec := range hits {
		if rec.Code != http.StatusOK || rec.Header().Get("X-Argo-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), miss.Body.Bytes()) {
			t.Fatalf("hit %d: status %d, cache %q, or a body other than the miss's", i, rec.Code, rec.Header().Get("X-Argo-Cache"))
		}
	}
	res := cachedResult(t, s, &CompileRequest{UseCase: "polka", Platform: "xentium4"})
	if !bytes.Equal(res.body, miss.Body.Bytes()) {
		t.Fatal("stored body differs from the miss's")
	}

	fresh := &compileResult{art: res.art, sum: res.sum}
	got := make([][]byte, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fresh.encoded()
		}()
	}
	wg.Wait()
	for i, b := range got {
		if len(b) == 0 || &b[0] != &got[0][0] || !bytes.Equal(b, miss.Body.Bytes()) {
			t.Fatalf("caller %d got a body of its own", i)
		}
	}
}

// discardResponse is a ResponseWriter that keeps the status and headers
// and drops the body.
type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// BenchmarkCompileHit serves requests shaped like perfbench's
// compile-warm workload through the handler: raw-source compiles of the
// three use cases on two platforms under both policies, each re-saved
// with a new leading comment, so every timed request is a result-cache
// hit of a compile the setup ran.
func BenchmarkCompileHit(b *testing.B) {
	s := NewServer(Config{})
	h := s.Handler()
	const variants = 16
	var bodies [][]byte
	for _, uc := range argo.UseCases() {
		for _, plat := range []string{"xentium4", "leon3-2x2"} {
			for _, policy := range []string{"aware", "oblivious"} {
				for v := 0; v <= variants; v++ {
					comment := ""
					if v > 0 {
						comment = fmt.Sprintf("// revision 1.%d\n", v)
					}
					req := sourceRequest(comment+uc.Source, uc.Entry, uc.Args...)
					req.Platform, req.Policy = plat, policy
					body, err := json.Marshal(req)
					if err != nil {
						b.Fatal(err)
					}
					if v == 0 {
						if rec := serve(s, "/v1/compile", string(body)); rec.Code != http.StatusOK {
							b.Fatalf("base compile: status %d: %s", rec.Code, rec.Body)
						}
						continue
					}
					bodies = append(bodies, body)
				}
			}
		}
	}
	w := &discardResponse{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.header)
		w.code = http.StatusOK
		r, err := http.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK || w.header.Get("X-Argo-Cache") != "hit" {
			b.Fatalf("status %d, cache %q", w.code, w.header.Get("X-Argo-Cache"))
		}
	}
}
