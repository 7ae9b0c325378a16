package main

// The traced run: the same request stream replayed inside this process
// through the public entry points argod's handlers call, in the same
// order, with a span around each call. Spans are kept in memory and
// written out at the end.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"argo/internal/core"
	"argo/internal/pass"
	"argo/internal/scil"
	"argo/internal/service"
	"argo/pkg/argo"
)

// span is one timed call. Parent is an index into the same slice, -1
// for a request's root span.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Cache is a pass span's cache outcome: "hit" (restored) or "miss".
	Cache string `json:"cache,omitempty"`
}

// recorder collects spans while on is set.
type recorder struct {
	epoch time.Time
	spans []span
	req   int32
	on    bool
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) begin(name string, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: r.req, Parent: parent, Start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].End = r.now()
	}
}

// passes adds a child span per pass execution of tr under parent. The
// pass trace records durations but not start times, so the spans are
// laid end to end from the parent's start.
func (r *recorder) passes(parent int32, tr *argo.PassTrace) {
	if parent < 0 || tr == nil {
		return
	}
	at := r.spans[parent].Start
	for _, tm := range tr.Passes {
		s := span{Name: "pass." + tm.Pass, Req: r.req, Parent: parent, Start: at, End: at + int64(tm.Wall)}
		if tm.Cache != pass.CacheNone {
			s.Cache = tm.Cache.String()
		}
		r.spans = append(r.spans, s)
		at = s.End
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer serves ops in-process the way argod's handlers do.
type replayer struct {
	cache    *service.Cache
	sessions *argo.SessionManager
	ids      [whatifSlots]string
	rec      recorder
	// pipelines and rounds count pipeline executions and their
	// feedback rounds among recorded requests.
	pipelines, rounds int
}

func newReplayer() *replayer {
	return &replayer{
		cache:    service.NewCache(256), // argod's default -cache
		sessions: argo.NewSessionManager(argo.DefaultMaxSessions, argo.DefaultSessionTTL),
		rec:      recorder{epoch: time.Now()},
	}
}

// do serves one op; timed ops are recorded when record is set.
func (p *replayer) do(ctx context.Context, o op, record bool) result {
	p.rec.on = record && o.timed()
	t0 := time.Now()
	root := p.rec.begin("request", -1)
	body, err := p.handle(ctx, &o, root)
	p.rec.end(root)
	r := result{op: o, status: http.StatusOK, body: body, latency: int64(time.Since(t0))}
	if err != nil {
		r.status, r.err = 0, err
	}
	if p.rec.on {
		p.rec.req++
	}
	return r
}

// decode is argod's strict JSON decode.
func decode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// encode is argod's indented JSON encode.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// job is a resolved compile request.
type job struct {
	uc     *argo.UseCase
	source string
	opt    argo.Options
	key    string
}

// resolve mirrors argod's request resolution: model, platform and its
// ADL canonicalization, policy, and the content-address key.
func resolve(req *service.CompileRequest) (*job, error) {
	j := &job{source: req.Source}
	entry := req.Entry
	var args []argo.ArgSpec
	if req.UseCase != "" {
		j.uc = argo.UseCaseByName(req.UseCase)
		if j.uc == nil {
			return nil, fmt.Errorf("unknown use case %q", req.UseCase)
		}
		j.source, entry, args = j.uc.Source, j.uc.Entry, j.uc.Args
	} else {
		for _, a := range req.Args {
			spec, err := a.ToArgSpec()
			if err != nil {
				return nil, err
			}
			args = append(args, spec)
		}
	}
	plat := argo.Platform(req.Platform)
	if plat == nil {
		return nil, fmt.Errorf("unknown platform %q", req.Platform)
	}
	canon, err := argo.EncodePlatform(plat)
	if err != nil {
		return nil, err
	}
	pol, err := service.ParsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	j.opt = argo.DefaultOptions(entry, args, plat)
	j.opt.Policy = pol
	wire := make([]service.ArgSpecJSON, len(args))
	for i, a := range args {
		wire[i] = service.FromArgSpec(a)
	}
	j.key = service.HashKey("argo/v1", "compile", j.source, entry, wire, string(canon), pol.String(), 0, "")
	return j, nil
}

func (j *job) name() (string, int64) {
	if j.uc == nil {
		return "", 0
	}
	return j.uc.Name, j.uc.Period
}

type compiled struct {
	art *argo.Artifacts
	sum *service.CompileSummary
}

// timed runs fn inside a span named name under parent.
func (p *replayer) timed(name string, parent int32, fn func() error) error {
	s := p.rec.begin(name, parent)
	err := fn()
	p.rec.end(s)
	return err
}

func (p *replayer) handle(ctx context.Context, o *op, root int32) ([]byte, error) {
	switch o.kind {
	case opCompile, opSimulate:
		return p.compileOrSimulate(ctx, o, root)
	case opCreate:
		return p.create(ctx, o, root)
	case opEdit:
		return p.edit(ctx, o, root)
	}
	if !p.sessions.Delete(p.ids[o.slot]) {
		return nil, argo.ErrSessionNotFound
	}
	return []byte(`{"status":"deleted"}`), nil
}

func (p *replayer) compileOrSimulate(ctx context.Context, o *op, root int32) ([]byte, error) {
	var req service.SimulateRequest
	var j *job
	err := p.timed("service.decode", root, func() error {
		if o.kind == opSimulate {
			return decode(o.body, &req)
		}
		return decode(o.body, &req.CompileRequest)
	})
	if err == nil {
		err = p.timed("service.resolve", root, func() (err error) {
			j, err = resolve(&req.CompileRequest)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	cs := p.rec.begin("service.cache", root)
	val, _, err := p.cache.Do(ctx, j.key, func() (any, error) { return p.compile(ctx, j, cs) })
	p.rec.end(cs)
	if err != nil {
		return nil, err
	}
	res := val.(*compiled)
	if o.kind == opCompile {
		return p.encode(root, res.sum)
	}
	resp := &service.SimulateResponse{Compile: res.sum}
	for _, seed := range req.Seeds {
		var in [][]float64
		var rep *argo.SimReport
		_ = p.timed("usecases.inputs", root, func() error { in = j.uc.Inputs(seed); return nil })
		if err := p.timed("sim.run", root, func() (err error) {
			rep, err = argo.SimulateContext(ctx, res.art, in)
			return err
		}); err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		run := service.SimRun{Seed: seed, Makespan: rep.Makespan, ExecSpan: rep.ExecSpan,
			BusWaitCycles: rep.BusWaitCycles, TotalBound: res.art.Bound(), WithinBound: true}
		if err := p.timed("sim.check", root, func() error { return argo.CheckBounds(res.art, rep) }); err != nil {
			run.WithinBound, run.BoundError = false, err.Error()
		}
		resp.Runs = append(resp.Runs, run)
	}
	return p.encode(root, resp)
}

// compile is the cache-miss path: parse, the pass pipeline, summary.
// parent is the service.cache span (-1 when not recording).
func (p *replayer) compile(ctx context.Context, j *job, parent int32) (any, error) {
	var prog *scil.Program
	if err := p.timed("scil.parse", parent, func() (err error) {
		prog, err = scil.Parse(j.source)
		return err
	}); err != nil {
		return nil, err
	}
	var art *argo.Artifacts
	cs := p.rec.begin("core.compile", parent)
	art, err := core.CompileContext(ctx, prog, j.opt)
	p.rec.end(cs)
	if err != nil {
		return nil, err
	}
	p.pipeline(cs, art)
	var sum *service.CompileSummary
	_ = p.timed("service.summarize", parent, func() error {
		name, period := j.name()
		sum = service.Summarize(name, period, art)
		return nil
	})
	return &compiled{art: art, sum: sum}, nil
}

// pipeline records the pass spans and feedback rounds of one pipeline
// execution.
func (p *replayer) pipeline(parent int32, art *argo.Artifacts) {
	if !p.rec.on {
		return
	}
	p.rec.passes(parent, art.PassTrace)
	p.pipelines++
	p.rounds += art.FeedbackRounds
}

func (p *replayer) encode(root int32, v any) ([]byte, error) {
	var body []byte
	err := p.timed("service.encode", root, func() (err error) {
		body, err = encode(v)
		return err
	})
	return body, err
}

func (p *replayer) create(ctx context.Context, o *op, root int32) ([]byte, error) {
	var req service.SessionCreateRequest
	var j *job
	err := p.timed("service.decode", root, func() error { return decode(o.body, &req) })
	if err == nil {
		err = p.timed("service.resolve", root, func() (err error) {
			j, err = resolve(&req.CompileRequest)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	var sess *argo.Session
	var res *argo.SessionEditResult
	cs := p.rec.begin("session.create", root)
	sess, res, err = p.sessions.Create(ctx, j.source, j.opt, argo.FaultSpec{}, argo.SessionApplyOptions{})
	p.rec.end(cs)
	if err != nil {
		return nil, err
	}
	sess.Meta = j.uc
	p.ids[o.slot] = sess.ID
	p.sessionPipeline(cs, res)
	return p.sessionReply(root, sess.ID, j.uc, res)
}

func (p *replayer) edit(ctx context.Context, o *op, root int32) ([]byte, error) {
	var req service.SessionEditRequest
	var e argo.SessionEdit
	if err := p.timed("service.decode", root, func() error {
		if err := decode(o.body, &req); err != nil {
			return err
		}
		e = argo.SessionEdit{Op: req.Op, Func: req.Func, Source: req.Source, Param: req.Param,
			Value: req.Value, Transform: req.Transform, Disable: req.Disable}
		if req.Op == argo.SessionOpSetPolicy {
			pol, err := service.ParsePolicy(req.Policy)
			e.Policy = pol
			return err
		}
		return nil
	}); err != nil {
		return nil, err
	}
	as := p.rec.begin("session.apply", root)
	res, err := p.sessions.Apply(ctx, p.ids[o.slot], e, argo.SessionApplyOptions{})
	p.rec.end(as)
	if err != nil {
		return nil, err
	}
	p.sessionPipeline(as, res)
	return p.sessionReply(root, p.ids[o.slot], useCase(o.cfg.model), res)
}

// sessionPipeline records the passes of a session analysis unless the
// session memo restored it whole: a memo hit re-runs nothing, not even
// the uncacheable passes, and returns the earlier run's trace.
func (p *replayer) sessionPipeline(parent int32, res *argo.SessionEditResult) {
	if res.PassesReran > 0 {
		p.pipeline(parent, res.Artifacts)
	}
}

func (p *replayer) sessionReply(root int32, id string, uc *argo.UseCase, res *argo.SessionEditResult) ([]byte, error) {
	var sum *service.SessionSummary
	_ = p.timed("service.summarize", root, func() error {
		sum = &service.SessionSummary{Session: id, Fingerprint: res.Fingerprint,
			PassesSkipped: res.PassesSkipped, PassesReran: res.PassesReran, ChangedTasks: res.ChangedTasks,
			BoundDelta: res.BoundDelta, WallNS: res.Wall.Nanoseconds(), Verified: res.Verified,
			Compile: service.Summarize(uc.Name, uc.Period, res.Artifacts)}
		return nil
	})
	return p.encode(root, sum)
}

// Layer attribution of spans. Pass spans map by pass name.
var (
	spanLayer = map[string]string{
		"request":           "other_ms",
		"service.decode":    "service.decode_ms",
		"service.resolve":   "service.resolve_ms",
		"service.cache":     "service.cache_ms",
		"service.summarize": "service.summarize_ms",
		"service.encode":    "service.encode_ms",
		"scil.parse":        "scil.parse_ms",
		"core.compile":      "core.ms",
		"usecases.inputs":   "usecases.inputs_ms",
		"sim.run":           "sim.run_ms",
		"sim.check":         "sim.run_ms",
		"session.create":    "session.create_ms",
		"session.apply":     "session.apply_ms",
	}
	passLayer = map[string]string{
		"check": "scil.check_ms", "lower": "ir.lower_ms",
		"fold": "transform.ms", "hoist": "transform.ms", "fission": "transform.ms",
		"elide-inits": "transform.ms", "chunk": "transform.ms", "spm": "transform.ms",
		"fusion": "transform.ms", "unroll": "transform.ms", "tile": "transform.ms",
		"label-loops": "htg.ms", "build-htg": "htg.ms", "coarsen": "htg.ms",
		"annotate": "wcet.annotate_ms", "seq-wcet": "wcet.annotate_ms",
		"sched-input": "sched.schedule_ms", "schedule": "sched.schedule_ms",
		"par-build": "par.build_ms", "validate": "par.build_ms",
	}
)

// layerTimeMetrics lists the per-layer self-time metrics in report order.
var layerTimeMetrics = []string{
	"service.decode_ms", "service.resolve_ms", "service.cache_ms", "service.summarize_ms", "service.encode_ms",
	"scil.parse_ms", "scil.check_ms", "ir.lower_ms", "transform.ms", "htg.ms", "wcet.annotate_ms",
	"sched.schedule_ms", "par.build_ms", "core.ms", "usecases.inputs_ms", "sim.run_ms",
	"session.create_ms", "session.apply_ms", "other_ms",
}

// breakdown is the traced run's per-layer account.
type breakdown struct {
	Requests int `json:"requests"`
	// RequestNS is the summed duration of the requests' root spans.
	RequestNS int64 `json:"request_ns"`
	// SelfNS sums span self time (duration minus children) per metric.
	SelfNS map[string]int64 `json:"self_ns"`
	// RestoreNS sums the self time of restored (cache hit) passes.
	RestoreNS int64 `json:"restore_ns"`
	// Unattributed lists span names no layer claims (counted in other_ms).
	Unattributed []string `json:"unattributed,omitempty"`
	// Overfull counts spans whose children outlast them.
	Overfull int `json:"overfull"`
}

func attribute(spans []span) breakdown {
	b := breakdown{SelfNS: map[string]int64{}}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		} else {
			b.Requests++
			b.RequestNS += s.End - s.Start
		}
	}
	unknown := map[string]bool{}
	for i, s := range spans {
		if self[i] < 0 {
			b.Overfull++
		}
		layer, ok := spanLayer[s.Name]
		if name, isPass := strings.CutPrefix(s.Name, "pass."); isPass {
			layer, ok = passLayer[name]
			if s.Cache == pass.CacheHit.String() {
				b.RestoreNS += self[i]
			}
		}
		if !ok {
			layer = "other_ms"
			unknown[s.Name] = true
		}
		b.SelfNS[layer] += self[i]
	}
	for n := range unknown {
		b.Unattributed = append(b.Unattributed, n)
	}
	sort.Strings(b.Unattributed)
	return b
}
