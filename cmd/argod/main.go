// Command argod serves the ARGO analysis pipeline as a long-lived HTTP
// daemon: POST /v1/compile, /v1/optimize, and /v1/simulate run the full
// compile→schedule→WCET→simulate tool-chain with content-addressed
// result caching, singleflight deduplication of concurrent identical
// requests, a bounded worker pool with load shedding (429 +
// Retry-After once the wait queue saturates), per-request deadlines
// (timeout_ms), and deterministic fault injection for /v1/simulate
// (faults); /v1/session hosts interactive what-if sessions — stateful
// incremental re-analysis where each typed edit (replace-func,
// set-param, toggle-transform, set-policy, set-faults) re-runs only the
// dirty pass suffix, optionally streaming pass-by-pass progress over
// SSE; GET /v1/platforms and /v1/usecases enumerate the built-in
// targets and models; /healthz (liveness), /readyz (readiness: 503
// while draining after SIGTERM), and /debug/vars expose health and
// metrics. See docs/SERVICE.md.
//
// -interp selects the simulator execution engine for every request: the
// compiled register-bytecode VM (default) or the tree-walking oracle.
// The engines are bit-identical, so the choice is deliberately not part
// of the result-cache keys.
//
// -peers puts the daemon in coordinator mode: compile and optimize
// requests are consistent-hash sharded across the listed argod replicas
// (rendezvous hashing with a bounded-load fallback via
// -max-per-replica), /v1/optimize fans optimizer-ladder candidates out
// to the replicas as remote candidate workers, POST /v1/batch evaluates
// many use-case×platform cells with per-cell status, and GET /v1/cluster
// + POST /v1/cluster/members expose and change the topology. Results are
// bit-identical to a single-process argod at any replica count.
//
// Examples:
//
//	argod                              # listen on :8321
//	argod -addr :8080 -workers 8 -timeout 30s
//	argod -peers http://n1:8321,http://n2:8321   # coordinator
//	curl -s localhost:8321/v1/compile \
//	  -d '{"usecase":"polka","platform":"xentium4"}'
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"argo/internal/pass"
	"argo/internal/service"
	"argo/internal/sim"
	"argo/pkg/argo"
)

// config is the validated daemon configuration produced by parseFlags.
type config struct {
	addr         string
	grace        time.Duration
	passCacheMax int
	vmCacheMax   int
	interp       sim.Interp
	service      service.Config
}

// parseFlags parses and validates the command line. On failure it
// reports the usage error on stderr and returns a nil config with the
// process exit code (always 2, matching the other CLIs).
func parseFlags(args []string, stderr io.Writer) (*config, int) {
	fs := flag.NewFlagSet("argod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8321", "listen address")
		workers      = fs.Int("workers", runtime.NumCPU(), "max concurrent pipeline executions")
		cache        = fs.Int("cache", 256, "result cache capacity in entries (-1: unbounded)")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request pipeline budget")
		grace        = fs.Duration("grace", 10*time.Second, "graceful shutdown budget")
		maxBody      = fs.Int64("max-body", 4<<20, "max request body bytes")
		maxQueue     = fs.Int("max-queue", 0, "max queued requests before load shedding (0: 4x workers, -1: unbounded)")
		maxSessions  = fs.Int("max-sessions", argo.DefaultMaxSessions, "max live interactive sessions (LRU-evicted beyond)")
		sessionTTL   = fs.Duration("session-ttl", argo.DefaultSessionTTL, "idle expiry of interactive sessions")
		passCacheMax = fs.Int("pass-cache-max", 0, "max snapshots in the global pass cache (0: default bound, 4096)")
		vmCacheMax   = fs.Int("vm-cache-max", 0, "max compiled programs in the shared VM code cache (0: default bound, 256)")
		interp       = fs.String("interp", "vm", "simulator execution engine: vm (bytecode) or tree (oracle)")
		wcetEngine   = fs.String("wcet-engine", "", "code-level WCET engine: ipet (default), mc, or both (cross-checked)")
		peers        = fs.String("peers", "", "comma-separated replica base URLs; non-empty enables coordinator mode")
		coordinator  = fs.Bool("coordinator", false, "run as cluster coordinator (requires -peers; implied by -peers)")
		maxPerRep    = fs.Int("max-per-replica", 0, "bounded-load fallback: max in-flight forwards per replica (0: unbounded)")
		fwdTimeout   = fs.Duration("forward-timeout", 30*time.Second, "per-attempt budget for forwarded cluster requests")
	)
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "argod: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return nil, 2
	}
	engine, err := sim.ParseInterp(*interp)
	if err != nil {
		fmt.Fprintf(stderr, "argod: %v\n", err)
		return nil, 2
	}
	if err := argo.ParseWCETEngine(*wcetEngine); err != nil {
		fmt.Fprintf(stderr, "argod: %v\n", err)
		return nil, 2
	}
	if *workers <= 0 || *timeout <= 0 || *grace <= 0 || *maxBody <= 0 {
		fmt.Fprintln(stderr, "argod: -workers, -timeout, -grace, and -max-body must be positive")
		return nil, 2
	}
	if *maxSessions <= 0 || *sessionTTL <= 0 || *passCacheMax < 0 || *vmCacheMax < 0 {
		fmt.Fprintln(stderr, "argod: -max-sessions and -session-ttl must be positive, -pass-cache-max and -vm-cache-max non-negative")
		return nil, 2
	}
	peerList, err := parsePeers(*peers)
	if err != nil {
		fmt.Fprintf(stderr, "argod: %v\n", err)
		return nil, 2
	}
	if *coordinator && len(peerList) == 0 {
		fmt.Fprintln(stderr, "argod: -coordinator requires -peers")
		return nil, 2
	}
	if *maxPerRep < 0 || *fwdTimeout <= 0 {
		fmt.Fprintln(stderr, "argod: -max-per-replica must be >= 0 and -forward-timeout positive")
		return nil, 2
	}
	return &config{
		addr:         *addr,
		grace:        *grace,
		passCacheMax: *passCacheMax,
		vmCacheMax:   *vmCacheMax,
		interp:       engine,
		service: service.Config{
			Workers:        *workers,
			CacheEntries:   *cache,
			Timeout:        *timeout,
			MaxBodyBytes:   *maxBody,
			MaxQueue:       *maxQueue,
			MaxSessions:    *maxSessions,
			SessionTTL:     *sessionTTL,
			WCETEngine:     *wcetEngine,
			Peers:          peerList,
			ForwardTimeout: *fwdTimeout,
			MaxPerReplica:  *maxPerRep,
		},
	}, 0
}

// parsePeers splits and validates the -peers list: comma-separated
// http(s) base URLs, empty entries ignored, nil for an empty flag.
func parsePeers(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var peers []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return nil, fmt.Errorf("-peers: %q is not an http(s) URL", p)
		}
		peers = append(peers, strings.TrimRight(p, "/"))
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers: no usable URLs in %q", s)
	}
	return peers, nil
}

func main() {
	cfg, code := parseFlags(os.Args[1:], os.Stderr)
	if cfg == nil {
		os.Exit(code)
	}
	// The engine is a process-wide default: every simulation the daemon
	// runs resolves InterpAuto to this choice.
	sim.SetInterp(cfg.interp)
	// Bound the process-wide pass cache; entry count and evictions are
	// exported as argo_pass_cache_{entries,evictions} in /debug/vars.
	pass.Global.SetMax(cfg.passCacheMax)
	// Bound the shared VM code cache likewise; observable as
	// argo_vm_shared_{entries,evictions} in /debug/vars.
	sim.SetVMCacheMax(cfg.vmCacheMax)

	srv := service.NewServer(cfg.service)
	// Publish the service metrics into the process-global expvar
	// registry too, so the stock expvar handler sees them.
	expvar.Publish("service", srv.Metrics())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.SetPrefix("argod: ")
	log.SetFlags(log.LstdFlags)
	if len(cfg.service.Peers) > 0 {
		log.Printf("coordinator over %d replicas: %v", len(cfg.service.Peers), cfg.service.Peers)
	}
	log.Printf("listening on %s (workers %d, cache %d entries, timeout %v, interp %s)",
		cfg.addr, cfg.service.Workers, cfg.service.CacheEntries, cfg.service.Timeout, cfg.interp)
	if err := srv.ListenAndServe(ctx, cfg.addr, cfg.grace); err != nil && err != http.ErrServerClosed {
		log.Printf("serve: %v", err)
		os.Exit(1)
	}
	log.Printf("shut down cleanly")
}
