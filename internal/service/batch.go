package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"argo/internal/conc"
)

// maxBatchCells bounds one batch request.
const maxBatchCells = 256

// BatchCell is one use-case×platform cell of a batch: a compile request
// plus the operation to run on it.
type BatchCell struct {
	CompileRequest
	// Op is "compile" (default) or "optimize".
	Op string `json:"op,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many cells evaluated
// concurrently with per-cell status — one cell failing (unknown use
// case, unschedulable model, shed) never fails the batch.
type BatchRequest struct {
	Cells []BatchCell `json:"cells"`
	// Parallelism bounds concurrent cell evaluation (0: GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS caps the whole batch's budget (clamped to the server
	// timeout); each cell may lower its own budget further via its
	// timeout_ms.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchCellResult is one cell's outcome. Status is the HTTP status the
// cell's request would have gotten stand-alone; exactly one of Compile,
// Optimize, or Error is populated.
type BatchCellResult struct {
	Index int    `json:"index"`
	Op    string `json:"op"`
	// Status is the cell's HTTP-equivalent status (200 on success).
	Status int `json:"status"`
	// Outcome is the cache outcome (hit/miss/dedup) for successful cells.
	Outcome string `json:"outcome,omitempty"`
	// Replica is the replica that served the cell (coordinator mode).
	Replica string `json:"replica,omitempty"`
	// Compile is the result of a compile cell.
	Compile *CompileSummary `json:"compile,omitempty"`
	// Optimize is the result of an optimize cell.
	Optimize *OptimizeResponse `json:"optimize,omitempty"`
	// Error is the failure message of a failed cell.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch reply.
type BatchResponse struct {
	Cells []BatchCellResult `json:"cells"`
	// OK and Failed count cells by outcome (OK: 2xx status).
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

// handleBatch evaluates many cells concurrently — locally in
// single-process mode, sharded across the replica set in coordinator
// mode — with partial-failure semantics: the batch itself only fails on
// malformed envelopes, never on cell-level errors.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Request("batch")
	var req BatchRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if len(req.Cells) == 0 {
		s.writeErr(w, badRequest("cells must be non-empty"))
		return
	}
	if len(req.Cells) > maxBatchCells {
		s.writeErr(w, badRequest("at most %d cells per batch (got %d)", maxBatchCells, len(req.Cells)))
		return
	}
	if req.Parallelism < 0 {
		s.writeErr(w, badRequest("parallelism must be >= 0"))
		return
	}
	if req.TimeoutMS < 0 {
		s.writeErr(w, badRequest("timeout_ms must be >= 0"))
		return
	}
	for i := range req.Cells {
		switch req.Cells[i].Op {
		case "", "compile", "optimize":
		default:
			s.writeErr(w, badRequest("cells[%d]: unknown op %q (compile, optimize)", i, req.Cells[i].Op))
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.clampTimeout(req.TimeoutMS))
	defer cancel()
	t0 := time.Now()
	results := make([]BatchCellResult, len(req.Cells))
	// Deterministic fan-out over cells; each cell's own errors land in
	// its result row, so ForEach fails only when the deadline or a worker
	// panic stops it, and then every cell that finished has a row.
	err := conc.ForEach(ctx, req.Parallelism, len(req.Cells), func(i int) {
		results[i] = s.runBatchCell(ctx, i, &req.Cells[i])
	})
	s.metrics.Observe("batch", time.Since(t0))
	// A cell without a row never finished: its worker panicked, or a
	// panic elsewhere stopped the fan-out before the cell started (500),
	// or the batch deadline expired first (504).
	var pe *conc.PanicError
	if !errors.As(err, &pe) {
		err = context.DeadlineExceeded
	}

	resp := &BatchResponse{Cells: results}
	for i := range results {
		if results[i].Status == 0 {
			results[i] = s.failedCell(i, &req.Cells[i], err)
		}
		if results[i].Status >= 200 && results[i].Status < 300 {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	s.writeJSON(w, OutcomeMiss, resp)
}

func cellOp(cell *BatchCell) string {
	if cell.Op == "" {
		return "compile"
	}
	return cell.Op
}

// failedCell builds a failed result row with the status the cell's
// request would have gotten stand-alone.
func (s *Server) failedCell(i int, cell *BatchCell, err error) BatchCellResult {
	status := statusFor(err)
	s.metrics.Error(fmt.Sprintf("%dxx", status/100))
	return BatchCellResult{Index: i, Op: cellOp(cell), Status: status, Error: err.Error()}
}

// runBatchCell evaluates one cell. In coordinator mode whole cells are
// forwarded to the replica owning their content address (cache
// affinity); if every replica fails the cell falls back to local
// evaluation, so a batch never silently drops cells.
func (s *Server) runBatchCell(ctx context.Context, i int, cell *BatchCell) BatchCellResult {
	op := cellOp(cell)
	job, err := s.resolve(&cell.CompileRequest)
	if err != nil {
		return s.failedCell(i, cell, err)
	}
	cctx, cancel := context.WithTimeout(ctx, s.clampTimeout(cell.TimeoutMS))
	defer cancel()

	if s.cluster != nil {
		if res := s.forwardBatchCell(cctx, i, cell, job, op); res != nil {
			return *res
		}
		// Every replica failed: evaluate locally below.
	}

	out := BatchCellResult{Index: i, Op: op, Status: http.StatusOK}
	switch op {
	case "optimize":
		resp, outcome, err := s.optimizeLocal(cctx, job)
		if err != nil {
			return s.failedCell(i, cell, err)
		}
		out.Optimize, out.Outcome = resp, outcome.String()
	default:
		res, outcome, err := s.cachedCompile(cctx, job)
		if err != nil {
			return s.failedCell(i, cell, err)
		}
		out.Compile, out.Outcome = res.sum, outcome.String()
	}
	return out
}

// forwardBatchCell routes one cell through the cluster; nil means every
// replica failed and the caller should run the cell locally.
func (s *Server) forwardBatchCell(ctx context.Context, i int, cell *BatchCell, job *compileJob, op string) *BatchCellResult {
	kind, path := "compile", "/v1/compile"
	if op == "optimize" {
		kind, path = "optimize", "/v1/optimize"
	}
	f, err := s.clusterRoute(ctx, kind, path, &cell.CompileRequest, job)
	if err != nil {
		return nil
	}
	out := BatchCellResult{Index: i, Op: op, Status: f.status, Outcome: f.outcome, Replica: f.replica}
	if f.status != http.StatusOK {
		s.metrics.Error(fmt.Sprintf("%dxx", f.status/100))
		var er ErrorResponse
		if jerr := json.Unmarshal(f.body, &er); jerr == nil && er.Error != "" {
			out.Error = er.Error
		} else {
			out.Error = fmt.Sprintf("replica status %d: %.200s", f.status, f.body)
		}
		out.Outcome = ""
		return &out
	}
	switch op {
	case "optimize":
		var resp OptimizeResponse
		if jerr := json.Unmarshal(f.body, &resp); jerr != nil {
			return nil // corrupt reply: recompute locally
		}
		out.Optimize = &resp
	default:
		var sum CompileSummary
		if jerr := json.Unmarshal(f.body, &sum); jerr != nil {
			return nil
		}
		out.Compile = &sum
	}
	return &out
}
