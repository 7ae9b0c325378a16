package service

// /v1/session: interactive what-if sessions. A session pins a compiled
// model server-side; each edit re-runs only the dirty pass suffix, over
// the pass cache every compile and session of the process shares
// (pass.Global), and reports exactly what it changed
// (passes skipped/reran, tasks moved, bound delta). Edits on one session
// are serialized by the session itself; edits on distinct sessions run
// concurrently, each holding one worker-pool slot like any compile.
// Streaming edits ("stream": true) answer with Server-Sent Events —
// one "pass" event per completed pipeline pass, then "result" and
// "done" — and are terminated with a "shutdown" event when the
// server starts draining, so graceful shutdown never leaves a client
// hanging on a silent long-lived connection.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"argo/internal/conc"
	"argo/pkg/argo"
)

// sessionUC returns the use case a session was created from (nil for
// raw-source sessions).
func sessionUC(sess *argo.Session) *argo.UseCase {
	uc, _ := sess.Meta.(*argo.UseCase)
	return uc
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("session_create")
	var req SessionCreateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	job, err := s.resolve(&req.CompileRequest)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	var faults argo.FaultSpec
	if req.Faults != nil {
		faults = req.Faults.ToSpec()
		if err := faults.Validate(); err != nil {
			s.writeErr(w, badRequest("faults: %v", err))
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req.CompileRequest))
	defer cancel()
	if err := s.pool.Acquire(ctx); err != nil {
		s.writeErr(w, err)
		return
	}
	t0 := time.Now()
	sess, res, err := s.sessions.Create(ctx, job.source, job.options(), faults,
		argo.SessionApplyOptions{Verify: req.Verify})
	s.pool.Release()
	s.metrics.Observe("session_create", time.Since(t0))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// Meta is set exactly once, before the id leaves the server, so
	// every later handler may read it without locking.
	sess.Meta = job.usecase
	s.writeJSON(w, OutcomeMiss, sessionSummary(sess.ID, job.usecase, res))
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("session_list")
	infos := s.sessions.List()
	out := make([]SessionInfoJSON, 0, len(infos))
	for _, in := range infos {
		out = append(out, SessionInfoJSON{
			ID:     in.ID,
			Edits:  in.Edits,
			IdleMS: in.IdleFor.Milliseconds(),
			AgeMS:  in.Age.Milliseconds(),
		})
	}
	s.writeJSON(w, OutcomeMiss, out)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("session_get")
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, argo.ErrSessionNotFound)
		return
	}
	source, art, _, edits := sess.Snapshot()
	uc := sessionUC(sess)
	name, period := "", int64(0)
	if uc != nil {
		name, period = uc.Name, uc.Period
	}
	s.writeJSON(w, OutcomeMiss, &SessionGetResponse{
		Session:     sess.ID,
		Source:      source,
		Fingerprint: sess.Fingerprint(),
		Edits:       edits,
		Compile:     Summarize(name, period, art),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("session_delete")
	if !s.sessions.Delete(r.PathValue("id")) {
		s.writeErr(w, argo.ErrSessionNotFound)
		return
	}
	s.writeJSON(w, OutcomeMiss, map[string]string{"status": "deleted"})
}

func (s *Server) handleSessionEdit(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("session_edit")
	id := r.PathValue("id")
	var req SessionEditRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	edit, err := req.toEdit()
	if err != nil {
		s.writeErr(w, badRequest("%v", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.clampTimeout(req.TimeoutMS))
	defer cancel()
	if err := s.pool.Acquire(ctx); err != nil {
		s.writeErr(w, err)
		return
	}
	if req.Stream {
		s.streamSessionEdit(w, r, ctx, cancel, id, edit, req.Verify)
		return
	}
	t0 := time.Now()
	res, err := s.sessionApply(ctx, id, edit, argo.SessionApplyOptions{Verify: req.Verify})
	s.pool.Release()
	s.metrics.Observe("session_edit", time.Since(t0))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, OutcomeMiss, s.editSummary(id, res))
}

// editSummary labels an edit result with the session's use case.
func (s *Server) editSummary(id string, res *argo.SessionEditResult) *SessionSummary {
	var uc *argo.UseCase
	if sess, ok := s.sessions.Get(id); ok {
		uc = sessionUC(sess)
	}
	return sessionSummary(id, uc, res)
}

// sseWrite emits one Server-Sent Event with a JSON payload.
func sseWrite(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// streamSessionEdit answers a streaming edit with Server-Sent Events.
// The caller has already acquired a worker-pool slot; the apply
// goroutine releases it. The handler returns promptly when the server
// starts draining (terminal "shutdown" event) or the client goes away —
// the in-flight analysis is cancelled via ctx and its result discarded
// (a cancelled edit is never committed to the session).
func (s *Server) streamSessionEdit(w http.ResponseWriter, r *http.Request, ctx context.Context, cancel context.CancelFunc, id string, edit argo.SessionEdit, verify bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.pool.Release()
		s.writeErr(w, badRequest("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Pass timings flow from the applying goroutine; the buffer covers a
	// full pipeline so the producer never blocks on a live consumer. The
	// ctx arm unblocks it when the handler has already returned.
	events := make(chan argo.PassTiming, 64)
	type applyOut struct {
		res *argo.SessionEditResult
		err error
	}
	resCh := make(chan applyOut, 1)
	t0 := time.Now()
	go func() {
		defer s.pool.Release()
		var out applyOut
		// net/http recovers only the handler goroutine: a panic here
		// would take the daemon down, so it becomes the edit's error.
		if pe := conc.Recover(func() {
			out.res, out.err = s.sessionApply(ctx, id, edit, argo.SessionApplyOptions{
				Verify: verify,
				OnTiming: func(tm argo.PassTiming) {
					select {
					case events <- tm:
					case <-ctx.Done():
					}
				},
			})
		}); pe != nil {
			out = applyOut{err: pe}
		}
		resCh <- out
	}()

	passEvent := func(tm argo.PassTiming) {
		ev := SessionPassEvent{Pass: tm.Pass, WallNS: tm.Wall.Nanoseconds()}
		if c := tm.Cache.String(); c != "" {
			ev.Cache = c
		}
		sseWrite(w, "pass", ev)
		fl.Flush()
	}
	for {
		select {
		case tm := <-events:
			passEvent(tm)
		case out := <-resCh:
			// All pass events were sent before the result (same
			// goroutine); drain whatever the select raced past.
			for {
				select {
				case tm := <-events:
					passEvent(tm)
					continue
				default:
				}
				break
			}
			s.metrics.Observe("session_edit", time.Since(t0))
			if out.err != nil {
				sseWrite(w, "error", ErrorResponse{Error: out.err.Error()})
			} else {
				sseWrite(w, "result", s.editSummary(id, out.res))
			}
			sseWrite(w, "done", map[string]string{"status": "done"})
			fl.Flush()
			return
		case <-s.drainCh:
			// Graceful shutdown: terminate the stream with an explicit
			// event and return so http.Server.Shutdown can complete. The
			// analysis is cancelled; nothing is committed.
			cancel()
			sseWrite(w, "shutdown", ErrorResponse{Error: "server draining; edit aborted"})
			fl.Flush()
			return
		case <-r.Context().Done():
			cancel()
			return
		}
	}
}

func (s *Server) handleSessionSimulate(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("session_simulate")
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.writeErr(w, argo.ErrSessionNotFound)
		return
	}
	var req SessionSimulateRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	uc := sessionUC(sess)
	if uc == nil {
		s.writeErr(w, badRequest("session was created from raw source; simulate needs a use-case session (input generators)"))
		return
	}
	seeds, err := simSeeds(req.Seeds, req.Runs)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.clampTimeout(req.TimeoutMS))
	defer cancel()

	// One snapshot serves every run: an edit that commits mid-request
	// changes neither the artifacts nor the fault spec the runs use, so
	// the summary describes exactly what was simulated.
	_, art, spec, _ := sess.Snapshot()
	t0 := time.Now()
	runs, err := simulateRuns(ctx, art, uc, seeds, spec)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.metrics.Observe("simulate", time.Since(t0))
	s.writeJSON(w, OutcomeMiss, &SimulateResponse{Compile: Summarize(uc.Name, uc.Period, art), Runs: runs})
}
