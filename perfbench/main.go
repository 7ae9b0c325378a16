// Command perfbench is argod's end-to-end and per-layer benchmark. It
// runs argod as shipped in its own process, drives its HTTP API from one
// closed-loop client over a seeded workload, checks every reply, and
// prints one JSON result line last. See README.md.
//
// Usage, from the root of a checkout (perfbench/run.sh builds first):
//
//	perfbench --workload compile-cold --seed 1 --seconds 10 --trace 0
//	perfbench -write-expected perfbench/expected.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Run shape. See README.md for how these were chosen.
const (
	// trials is how many argod processes a trace-0 run starts, sets up
	// and measures, each for a third of --seconds.
	trials = 3
	// rssOps is the op count of a trial's window at which peak RSS is
	// read, so that a faster build is not charged with the memory of
	// the extra requests it serves in the same time.
	rssOps = 300
	// traceOps is the op count of both halves of a trace-1 run.
	traceOps = 1000
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	argod    string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured window of a trace-0 run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&o.argod, "argod", ".bench_build/perfbench/argod", "argod binary")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for span files")
	writeExp := fs.String("write-expected", "", "write the expected outputs to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeExp != "" {
		if err := writeExpected(*writeExp, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if _, err := newGenerator(o.workload, o.seed); err != nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	chk := &checker{exp: exp, workload: o.workload}
	host0 := readHostTicks()
	var rep *report
	if o.trace == 0 {
		rep, err = endToEnd(&o, chk)
	} else {
		rep, err = layers(&o, chk)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range chk.msgs {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", m)
	}
	rep.Failures = chk.msgs
	rep.StealPct = readHostTicks().stealPctSince(host0)
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{chk.failed == 0 && rep.Consistent, chk.attempted, chk.failed, rep.metrics}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is printed as the line before the result.
type report struct {
	Env    *environment `json:"env"`
	Trials []*trial     `json:"trials,omitempty"`
	// Setups are every set-up of a trace-0 run, extra ones included.
	Setups []setupReading `json:"setups,omitempty"`
	Ops    int            `json:"ops"`
	// Consistent is false when the traced run's spans do not add up.
	Consistent bool       `json:"consistent"`
	Layers     *breakdown `json:"layers,omitempty"`
	// UntracedMeanMS and TracedMeanMS are the mean request times of
	// the two halves of a trace-1 run.
	UntracedMeanMS float64            `json:"untraced_mean_ms,omitempty"`
	TracedMeanMS   float64            `json:"traced_mean_ms,omitempty"`
	Deltas         map[string]float64 `json:"debug_vars_deltas,omitempty"`
	Spans          string             `json:"spans,omitempty"`
	Failures       []string           `json:"failures,omitempty"`
	// StealPct is the share of all CPU time the hypervisor gave to
	// other guests during the run: a noise indicator.
	StealPct float64 `json:"host_steal_pct"`
	metrics  map[string]metric
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// httpRunner sends ops to one argod.
type httpRunner struct {
	client *http.Client
	a      *argod
	ids    [whatifSlots]string
}

func (r *httpRunner) do(o op) result {
	method, path := http.MethodPost, ""
	switch o.kind {
	case opCompile:
		path = "/v1/compile"
	case opSimulate:
		path = "/v1/simulate"
	case opCreate:
		path = "/v1/session"
	case opEdit:
		path = "/v1/session/" + r.ids[o.slot] + "/edit"
	case opDelete:
		method, path = http.MethodDelete, "/v1/session/"+r.ids[o.slot]
	}
	res := result{op: o}
	req, err := http.NewRequest(method, r.a.base+path, bytes.NewReader(o.body))
	if err != nil {
		res.err = err
		return res
	}
	t0 := time.Now()
	resp, err := r.client.Do(req)
	if err == nil {
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.status = resp.StatusCode
	}
	res.latency = int64(time.Since(t0))
	res.err = err
	res.op.body = nil // checks need the reply, not the request
	if o.kind == opCreate && err == nil && res.status == http.StatusOK {
		var s struct {
			Session string `json:"session"`
		}
		_ = json.Unmarshal(res.body, &s)
		r.ids[o.slot] = s.Session
	}
	return res
}

// setUp starts argod and runs the workload's set-up ops, timed from
// argod's start to the end of the warm-up.
func setUp(o *options, client *http.Client, chk *checker) (*httpRunner, generator, setupReading, error) {
	var sr setupReading
	gen, err := newGenerator(o.workload, o.seed)
	if err != nil {
		return nil, nil, sr, err
	}
	ops := gen.setup()
	host0 := readHostTicks()
	t0 := time.Now()
	a, err := startArgod(o.argod, client)
	if err != nil {
		return nil, nil, sr, err
	}
	r := &httpRunner{client: client, a: a}
	results := make([]result, 0, len(ops))
	for _, op := range ops {
		results = append(results, r.do(op))
	}
	sr.S = time.Since(t0).Seconds()
	sr.StealPct = readHostTicks().stealPctSince(host0)
	for i := range results {
		chk.check(&results[i])
	}
	return r, gen, sr, nil
}

// setupReading is one set-up's wall time and the hypervisor's steal
// over it.
type setupReading struct {
	S        float64 `json:"s"`
	StealPct float64 `json:"steal_pct"`
}

// trial is one argod process of a trace-0 run: set-up, then a window
// cut into slices.
type trial struct {
	Setup setupReading `json:"setup"`
	RSSMB float64      `json:"rss_mb"`
	// RSSAtOps is the op count at which the RSS was read.
	RSSAtOps int      `json:"rss_at_ops"`
	Slices   []*slice `json:"slices"`
}

// slice is about sliceLen of a window. The hypervisor's steal over it
// decides whether its readings count (see pickSlices).
type slice struct {
	Ops      int     `json:"ops"`
	S        float64 `json:"s"`
	CPUMS    float64 `json:"cpu_ms"`
	StealPct float64 `json:"steal_pct"`
	Used     bool    `json:"used"`
	lat      []float64
}

// Steal is the hypervisor running other guests on this host's CPUs: it
// stalls argod and the client at random and is no property of the code
// measured. A window slice over which the hypervisor stole more than
// maxStealPct of the guest's CPU time is dropped, as long as the slices
// kept still hold minSamples latencies; otherwise the calmest of the
// dropped ones are taken back. A set-up with more steal is repeated, at
// most maxExtraSetups times, and setup_s is the median of the calmest
// set-ups.
const (
	sliceLen       = 500 * time.Millisecond
	maxStealPct    = 5
	minSamples     = 1000
	maxExtraSetups = 2
)

// sliceClock reads the clocks a slice is measured with.
type sliceClock struct {
	at   time.Time
	cpu  time.Duration
	host hostTicks
}

func readClock(a *argod) (sliceClock, error) {
	c := sliceClock{at: time.Now()}
	var err error
	c.cpu, err = a.cpu()
	c.host = readHostTicks()
	return c, err
}

// runTrial starts argod, sets it up and measures one window.
func runTrial(o *options, client *http.Client, chk *checker, window time.Duration) (*trial, error) {
	r, gen, sr, err := setUp(o, client, chk)
	if err != nil {
		return nil, err
	}
	defer r.a.stop()
	t := &trial{Setup: sr, RSSAtOps: rssOps}
	c0, err := readClock(r.a)
	if err != nil {
		return nil, err
	}
	rss := math.NaN()
	ops := 0
	var results []result
	cur := &slice{}
	deadline := c0.at.Add(window)
	for done := false; !done; {
		res := r.do(gen.next())
		results = append(results, res)
		if res.op.timed() {
			cur.lat = append(cur.lat, float64(res.latency)/1e6)
			if ops++; ops == rssOps {
				if rss, err = r.a.peakRSS(); err != nil {
					return nil, err
				}
			}
		}
		now := time.Now()
		done = !now.Before(deadline)
		if !done && now.Sub(c0.at) < sliceLen {
			continue
		}
		c1, err := readClock(r.a)
		if err != nil {
			return nil, err
		}
		cur.Ops, cur.S, cur.CPUMS = len(cur.lat), c1.at.Sub(c0.at).Seconds(), float64(c1.cpu-c0.cpu)/1e6
		cur.StealPct = c1.host.stealPctSince(c0.host)
		t.Slices = append(t.Slices, cur)
		cur, c0 = &slice{}, c1
	}
	if math.IsNaN(rss) {
		// Fewer than rssOps ops in the window: read it at the end.
		t.RSSAtOps = ops
		if rss, err = r.a.peakRSS(); err != nil {
			return nil, err
		}
	}
	t.RSSMB = rss
	r.a.stop()
	for i := range results {
		chk.check(&results[i])
	}
	return t, nil
}

// endToEnd is a trace-0 run: trials argod processes, each set up and
// measured for an equal share of o.seconds.
func endToEnd(o *options, chk *checker) (*report, error) {
	// The client keeps little live heap; fewer collections keep its
	// pauses out of the latencies it measures. (A trace-1 run keeps
	// the default: its replay must collect as argod does.)
	debug.SetGCPercent(400)
	client := newClient()
	rep := &report{Env: newEnvironment(o), Consistent: true}
	window := time.Duration(o.seconds) * time.Second / trials
	calm := 0
	for i := 0; i < trials; i++ {
		t, err := runTrial(o, client, chk, window)
		if err != nil {
			return nil, err
		}
		rep.Trials = append(rep.Trials, t)
		rep.Setups = append(rep.Setups, t.Setup)
		if t.Setup.StealPct <= maxStealPct {
			calm++
		}
	}
	for extra := 0; calm < trials && extra < maxExtraSetups; extra++ {
		r, _, sr, err := setUp(o, client, chk)
		if err != nil {
			return nil, err
		}
		r.a.stop()
		rep.Setups = append(rep.Setups, sr)
		if sr.StealPct <= maxStealPct {
			calm++
		}
	}
	chk.finish()
	rep.metrics = endToEndMetrics(rep.Trials, rep.Setups)
	for _, t := range rep.Trials {
		for _, sl := range t.Slices {
			if sl.Used {
				rep.Ops += sl.Ops
			}
		}
	}
	return rep, nil
}

// pickSlices marks the slices whose readings count: every slice with
// steal up to maxStealPct, then the calmest others until the marked
// slices hold minSamples latencies. Steal is the hypervisor running
// other guests on this host's CPUs; it stalls argod and the client at
// random and is no property of the code measured.
func pickSlices(slices []*slice) {
	sort.SliceStable(slices, func(i, j int) bool { return slices[i].StealPct < slices[j].StealPct })
	n := 0
	for _, sl := range slices {
		if sl.StealPct > maxStealPct && n >= minSamples {
			break
		}
		sl.Used = true
		n += sl.Ops
	}
}

// endToEndMetrics pools the latencies, ops, time and CPU of the slices
// that count, and takes the median of the trials' RSS and of the
// calmest set-ups' times.
func endToEndMetrics(ts []*trial, setups []setupReading) map[string]metric {
	var all []*slice
	var rss []float64
	for _, t := range ts {
		all = append(all, t.Slices...)
		rss = append(rss, t.RSSMB)
	}
	calmest := append([]setupReading(nil), setups...)
	sort.SliceStable(calmest, func(i, j int) bool { return calmest[i].StealPct < calmest[j].StealPct })
	var setup []float64
	for _, sr := range calmest[:min(trials, len(calmest))] {
		setup = append(setup, sr.S)
	}
	pickSlices(append([]*slice(nil), all...))
	var lat []float64
	var secs, cpu float64
	for _, sl := range all {
		if sl.Used {
			lat = append(lat, sl.lat...)
			secs += sl.S
			cpu += sl.CPUMS
		}
	}
	sort.Float64s(lat)
	n := float64(len(lat))
	return map[string]metric{
		"latency_p50_ms": {quantile(lat, 0.50), "ms"},
		"latency_p99_ms": {quantile(lat, 0.99), "ms"},
		"throughput_rps": {n / secs, "req/s"},
		"cpu_ms_per_op":  {cpu / n, "ms"},
		"peak_rss_mb":    {median(rss), "MB"},
		"setup_s":        {median(setup), "s"},
	}
}

// layers is a trace-1 run: traceOps ops through argod with
// /debug/vars read before and after, then the same set-up and ops
// replayed in this process with spans.
func layers(o *options, chk *checker) (*report, error) {
	client := newClient()
	rep := &report{Env: newEnvironment(o), Ops: traceOps}
	r, gen, _, err := setUp(o, client, chk)
	if err != nil {
		return nil, err
	}
	defer r.a.stop()
	v0, err := r.a.vars(client)
	if err != nil {
		return nil, err
	}
	var untraced int64
	var results []result
	for n := 0; n < traceOps; {
		res := r.do(gen.next())
		results = append(results, res)
		if res.op.timed() {
			untraced += res.latency
			n++
		}
	}
	v1, err := r.a.vars(client)
	if err != nil {
		return nil, err
	}
	r.a.stop()

	ctx := context.Background()
	p := newReplayer()
	gen, _ = newGenerator(o.workload, o.seed)
	for _, op := range gen.setup() {
		res := p.do(ctx, op, false)
		chk.check(&res)
	}
	for n := 0; n < traceOps; {
		op := gen.next()
		res := p.do(ctx, op, true)
		results = append(results, res)
		if op.timed() {
			n++
		}
	}
	for i := range results {
		chk.check(&results[i])
	}
	chk.finish()

	b := attribute(p.rec.spans)
	rep.Layers = &b
	rep.Deltas = deltas(v0, v1)
	rep.UntracedMeanMS = float64(untraced) / 1e6 / traceOps
	rep.TracedMeanMS = float64(b.RequestNS) / 1e6 / traceOps
	var sum int64
	for _, ns := range b.SelfNS {
		sum += ns
	}
	gap := float64(sum-b.RequestNS) / 1e6 / traceOps
	rep.Consistent = b.Requests == traceOps && b.Overfull == 0 && gap == 0
	rep.metrics = layerMetrics(rep, p, gap)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	rep.Spans = filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := p.rec.write(rep.Spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerMetrics builds the per-layer metrics: mean self time per op from
// the spans, counts per op from the /debug/vars deltas.
func layerMetrics(rep *report, p *replayer, gap float64) map[string]metric {
	ops := float64(traceOps)
	m := map[string]metric{}
	for _, name := range layerTimeMetrics {
		m[name] = metric{float64(rep.Layers.SelfNS[name]) / 1e6 / ops, "ms"}
	}
	m["trace.request_ms"] = metric{rep.TracedMeanMS, "ms"}
	m["trace.addup_gap_ms"] = metric{gap, "ms"}
	m["service.http_ms"] = metric{rep.UntracedMeanMS - rep.TracedMeanMS, "ms"}
	m["pass.restore_ms"] = metric{float64(rep.Layers.RestoreNS) / 1e6 / ops, "ms"}
	rounds := 0.0
	if p.pipelines > 0 {
		rounds = float64(p.rounds) / float64(p.pipelines)
	}
	m["core.feedback_rounds"] = metric{rounds, "count"}

	d := rep.Deltas
	perOp := func(name string, v float64, unit string) { m[name] = metric{v / ops, unit} }
	ratio := func(name string, hits, total float64) {
		v := 0.0
		if total > 0 {
			v = hits / total
		}
		m[name] = metric{v, "ratio"}
	}
	sum := func(prefix string) float64 {
		s := 0.0
		for k, v := range d {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	look := d["service.cache.hits"] + d["service.cache.misses"]
	ratio("service.result_hit_ratio", d["service.cache.hits"], look)
	perOp("service.result_lookups_per_op", look, "1/op")
	look = d["argo_pass_cache_hits"] + d["argo_pass_cache_misses"]
	ratio("pass.hit_ratio", d["argo_pass_cache_hits"], look)
	perOp("pass.lookups_per_op", look, "1/op")
	perOp("pass.runs_per_op", sum("argo_pass_runs."), "1/op")
	look = d["argo_wcet_cache_hits"] + d["argo_wcet_cache_misses"]
	ratio("wcet.hit_ratio", d["argo_wcet_cache_hits"], look)
	perOp("wcet.lookups_per_op", look, "1/op")
	perOp("wcet.analyses_per_op", d["argo_wcet_cache_misses"], "1/op")
	look = d["argo_trace_memo_hits"] + d["argo_trace_memo_misses"]
	ratio("sim.memo_hit_ratio", d["argo_trace_memo_hits"], look)
	perOp("sim.memo_lookups_per_op", look, "1/op")
	look = d["argo_trace_cache_hits"] + d["argo_trace_cache_misses"]
	ratio("sim.trace_hit_ratio", d["argo_trace_cache_hits"], look)
	perOp("sim.trace_lookups_per_op", look, "1/op")
	perOp("vm.compiles_per_op", d["argo_vm_compiles"], "1/op")
	analyses := d["service.requests.session_create"] + d["service.requests.session_edit"]
	ratio("session.memo_hit_ratio", d["argo_session_memo_hits"], analyses)
	perOp("session.analyses_per_op", analyses, "1/op")
	passes := d["argo_session_passes_skipped"] + d["argo_session_passes_reran"]
	ratio("session.skipped_ratio", d["argo_session_passes_skipped"], passes)
	perOp("session.passes_per_op", passes, "1/op")
	perOp("go.alloc_kb_per_op", d["memstats.TotalAlloc"]/1024, "KB/op")
	perOp("go.gc_per_op", d["memstats.NumGC"], "1/op")
	return m
}

// deltas flattens two /debug/vars snapshots into dotted numeric paths
// and subtracts them.
func deltas(v0, v1 map[string]json.RawMessage) map[string]float64 {
	f0, f1 := map[string]float64{}, map[string]float64{}
	for k, raw := range v0 {
		flatten(k, raw, f0)
	}
	for k, raw := range v1 {
		flatten(k, raw, f1)
	}
	out := map[string]float64{}
	for k, v := range f1 {
		if d := v - f0[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func flatten(prefix string, raw json.RawMessage, into map[string]float64) {
	var num float64
	if json.Unmarshal(raw, &num) == nil {
		into[prefix] = num
		return
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal(raw, &obj) == nil {
		for k, v := range obj {
			flatten(prefix+"."+k, v, into)
		}
	}
}

// quantile interpolates linearly between closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	h := q * float64(len(xs)-1)
	lo := int(h)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
