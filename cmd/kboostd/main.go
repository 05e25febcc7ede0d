// Command kboostd serves boosting queries over HTTP: it loads graph
// snapshots at startup (and accepts live uploads when an auth token is
// configured), keeps PRR-graph pools cached across queries, and exposes
// the engine as a JSON API.
//
// Usage:
//
//	kboostd -addr :8090 -graph prod=digg.txt
//	kboostd -graph a=g1.txt -graph b=g2.bin -max-pool-mb 2048 -max-workers 8
//	kboostd -dataset demo=digg:0.01:2:1   # synthetic stand-in, no file needed
//	kboostd -auth-token s3cret -data-dir /var/lib/kboost  # live uploads, persisted
//	kboostd -graph prod=digg.txt -prewarm prod:seeds.txt:20:10000  # warm at boot
//
// Endpoints:
//
//	POST /v1/boost    {"graph":"prod","seeds":[1,2],"k":10,...}
//	POST /v1/seeds    {"graph":"prod","k":10,...}
//	POST /v1/estimate {"graph":"prod","seeds":[1,2],"boost":[3],...}
//	GET  /v1/stats
//	GET  /healthz                   liveness (always 200 while the
//	                                process serves)
//	GET  /readyz                    readiness (503 once draining)
//	GET  /v1/graphs                 list snapshots (id, version, size)
//	POST /v1/graphs/{name}          upload a snapshot (text or binary
//	                                graph codec; requires -auth-token,
//	                                body capped by -max-upload-mb)
//	DELETE /v1/graphs/{name}        remove a snapshot (requires -auth-token)
//	PATCH /v1/graphs/{name}/edges   apply an edge delta (JSON or binary
//	                                KBD1 codec; requires -auth-token)
//
// Every upload installs an immutable snapshot under a bumped version
// and invalidates the replaced version's cached pools, so queries never
// mix two snapshots. A PATCH also bumps the version, but *repairs* the
// cached pools instead of invalidating them: only the sketches and
// profiles whose sampled region touches a changed edge are resampled,
// so warm state survives small mutations (a pool touched beyond
// -repair-fallback-frac is dropped and rebuilt cold instead). With
// -data-dir, accepted uploads and patches are persisted as <name>.kbg
// and reloaded on the next boot.
//
// Boost and estimate requests take a "mode": the default "full" and
// "lb" run the paper's PRR-Boost algorithms under the IC model, while
// "lt" serves the boosted Linear Threshold extension from a cached pool
// of Monte-Carlo threshold profiles ("sims" sets the profile budget; LT
// selection is a heuristic with no approximation guarantee). All modes
// share the pool LRU, so warm LT queries skip sampling the same way
// warm PRR queries do — watch the sim_modes.lt counters in /v1/stats.
//
// kboostd shuts down gracefully on SIGINT/SIGTERM: /readyz flips to 503
// (so load balancers stop routing), in-flight requests drain for up to
// -drain-timeout, and past that budget every request context is
// canceled so cooperative cancellation unwinds the stragglers. A signal
// during -prewarm aborts the warm-up promptly instead of finishing it.
//
// Admission is bounded per lane (-max-inflight-cold for pool-building
// requests, -max-inflight-warm for cache hits); overflow is answered
// with 429 + Retry-After, except estimates, which degrade to the
// closed-form/fixed-budget floor tier with "degraded":true unless
// -no-degrade is set.
//
// Setting KBOOST_FAULTS (e.g. "pool.build.shard=err#2") arms the fault
// injection registry for chaos drills; leave it unset in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	kboost "github.com/kboost/kboost"
	"github.com/kboost/kboost/internal/faults"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kboostd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kboostd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8090", "listen address")
		workers      = fs.Int("workers", 0, "default worker budget per query (0 = GOMAXPROCS)")
		maxWorkers   = fs.Int("max-workers", 0, "cap on per-request worker budgets (0 = uncapped)")
		maxPools     = fs.Int("max-pools", 8, "PRR pool cache capacity (LRU, entry count)")
		maxPoolMB    = fs.Int64("max-pool-mb", 1024, "PRR pool cache budget in MiB of estimated pool memory")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
		authToken    = fs.String("auth-token", "", "bearer token gating POST/PATCH/DELETE /v1/graphs (empty = graph administration disabled)")
		repairFrac   = fs.Float64("repair-fallback-frac", 0, "touched share of pool regeneration cost (expansion size) above which a graph patch drops a cached pool instead of repairing it (0 = default 0.5, 1 = always repair)")
		maxUploadMB  = fs.Int64("max-upload-mb", 64, "graph upload body cap in MiB")
		dataDir      = fs.String("data-dir", "", "directory persisting uploaded snapshots as <name>.kbg, reloaded on boot")

		readHeaderTimeout = fs.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		readTimeout       = fs.Duration("read-timeout", 5*time.Minute, "http.Server ReadTimeout; must cover the largest graph upload (0 = unlimited)")
		writeTimeout      = fs.Duration("write-timeout", 0, "http.Server WriteTimeout; 0 (the default) leaves cold pool builds unbounded — set only with a known worst-case build time")
		idleTimeout       = fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections (0 = unlimited)")

		maxInFlightCold = fs.Int("max-inflight-cold", kboost.DefaultMaxInFlightCold(), "concurrent requests allowed to build pools; overflow gets 429 (0 = unbounded)")
		maxInFlightWarm = fs.Int("max-inflight-warm", kboost.DefaultMaxInFlightWarm(), "concurrent cache-hit requests; overflow gets 429 (0 = unbounded)")
		retryAfter      = fs.Int("retry-after", 0, "Retry-After seconds on shed (429) responses (0 = default 1)")
		noDegrade       = fs.Bool("no-degrade", false, "shed over-admission estimates with 429 instead of serving the degraded floor tier")

		graphSpecs   sliceFlag
		datasetSpecs sliceFlag
		prewarmSpecs sliceFlag
	)
	fs.Var(&graphSpecs, "graph", "id=path graph file to serve (repeatable)")
	fs.Var(&datasetSpecs, "dataset", "id=name:scale:beta:seed synthetic stand-in to serve (repeatable)")
	fs.Var(&prewarmSpecs, "prewarm", "graph:seeds-file:k:sims pool to build at startup, before serving (repeatable; sims 0 skips the LT pool)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(graphSpecs) == 0 && len(datasetSpecs) == 0 && *authToken == "" && *dataDir == "" {
		return fmt.Errorf("no graphs to serve: pass -graph id=path or -dataset id=spec (or enable live uploads with -auth-token)")
	}
	if spec := os.Getenv("KBOOST_FAULTS"); spec != "" {
		if err := faults.InitFromEnv(spec); err != nil {
			return fmt.Errorf("KBOOST_FAULTS: %w", err)
		}
		log.Printf("fault injection armed: KBOOST_FAULTS=%q (chaos drills only)", spec)
	}

	eng := kboost.NewEngine(kboost.EngineOptions{
		MaxPools:               *maxPools,
		MaxPoolBytes:           *maxPoolMB << 20,
		Workers:                *workers,
		RepairFallbackFraction: *repairFrac,
	})
	for _, spec := range graphSpecs {
		id, path, err := splitSpec(spec)
		if err != nil {
			return fmt.Errorf("-graph %q: %w", spec, err)
		}
		g, err := kboost.LoadGraph(path)
		if err != nil {
			return fmt.Errorf("loading graph %q: %w", id, err)
		}
		if err := eng.RegisterGraph(id, g); err != nil {
			return err
		}
		log.Printf("graph %q: %d nodes, %d edges (%s)", id, g.N(), g.M(), path)
	}
	for _, spec := range datasetSpecs {
		id, rest, err := splitSpec(spec)
		if err != nil {
			return fmt.Errorf("-dataset %q: %w", spec, err)
		}
		g, err := generateDataset(rest)
		if err != nil {
			return fmt.Errorf("-dataset %q: %w", spec, err)
		}
		if err := eng.RegisterGraph(id, g); err != nil {
			return err
		}
		log.Printf("graph %q: %d nodes, %d edges (synthetic %s)", id, g.N(), g.M(), rest)
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return fmt.Errorf("-data-dir: %w", err)
		}
		// Persisted uploads are the freshest state, so they replace any
		// -graph/-dataset snapshot registered under the same id.
		n, err := eng.LoadSnapshotDir(*dataDir)
		if err != nil {
			return err
		}
		if n > 0 {
			log.Printf("reloaded %d persisted snapshot(s) from %s", n, *dataDir)
		}
	}
	if *authToken == "" {
		log.Printf("graph administration disabled (no -auth-token); serving startup graphs only")
	}
	// The signal context is armed before prewarming: pool builds can take
	// minutes on large graphs, and a SIGTERM during startup should abort
	// the warm-up promptly instead of finishing it for nobody.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Pre-warm named pools before the listener opens: the builds run on
	// the startup path, so the first user queries against these
	// (graph, seeds) pairs land on a warm cache instead of paying the
	// cold PRR sampling cost.
	for _, spec := range prewarmSpecs {
		pw, err := parsePrewarm(spec)
		if err != nil {
			return fmt.Errorf("-prewarm %q: %w", spec, err)
		}
		if err := prewarmEngine(ctx, eng, pw); err != nil {
			if ctx.Err() != nil {
				log.Printf("prewarm aborted by signal; exiting")
				return nil
			}
			return fmt.Errorf("-prewarm %q: %w", spec, err)
		}
	}

	api := kboost.NewEngineServer(eng, kboost.EngineServerOptions{
		MaxWorkers:        *maxWorkers,
		AuthToken:         *authToken,
		MaxUploadBytes:    *maxUploadMB << 20,
		SnapshotDir:       *dataDir,
		MaxInFlightCold:   *maxInFlightCold,
		MaxInFlightWarm:   *maxInFlightWarm,
		RetryAfterSeconds: *retryAfter,
		DisableDegrade:    *noDegrade,
	})
	// Request contexts hang off baseCtx so the drain path can cancel
	// whatever is still in flight once the drain budget runs out.
	baseCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(api),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	// Flip readiness before draining so load balancers polling /readyz
	// stop routing new work here while in-flight requests finish.
	api.SetDraining(true)
	log.Printf("shutting down (draining up to %s)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain budget exhausted: cancel every in-flight request context
		// (cooperative cancellation unwinds pool builds at the next shard
		// boundary) and close the lingering connections.
		cancelRequests()
		_ = srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	return nil
}

// sliceFlag collects repeated flag values.
type sliceFlag []string

func (f *sliceFlag) String() string     { return strings.Join(*f, ",") }
func (f *sliceFlag) Set(v string) error { *f = append(*f, v); return nil }

func splitSpec(spec string) (id, rest string, err error) {
	id, rest, ok := strings.Cut(spec, "=")
	if !ok || id == "" || rest == "" {
		return "", "", fmt.Errorf("want id=value")
	}
	return id, rest, nil
}

// prewarmSpec is one parsed -prewarm flag.
type prewarmSpec struct {
	graphID   string
	seedsPath string
	k         int
	sims      int
}

// parsePrewarm parses "graph:seeds-file:k:sims". sims is optional and
// defaults to 0 (PRR pool only; a positive value also builds the
// boosted-LT profile pool for the same seed set).
func parsePrewarm(spec string) (prewarmSpec, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return prewarmSpec{}, fmt.Errorf("want graph:seeds-file:k:sims")
	}
	pw := prewarmSpec{graphID: parts[0], seedsPath: parts[1]}
	if pw.graphID == "" || pw.seedsPath == "" {
		return prewarmSpec{}, fmt.Errorf("empty graph id or seeds file")
	}
	k, err := strconv.Atoi(parts[2])
	if err != nil || k < 1 {
		return prewarmSpec{}, fmt.Errorf("bad k %q (want a positive integer)", parts[2])
	}
	pw.k = k
	if len(parts) == 4 {
		sims, err := strconv.Atoi(parts[3])
		if err != nil || sims < 0 {
			return prewarmSpec{}, fmt.Errorf("bad sims %q (want a non-negative integer)", parts[3])
		}
		pw.sims = sims
	}
	return pw, nil
}

// readSeedsFile loads a whitespace-separated list of node ids.
func readSeedsFile(path string) ([]int32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var seeds []int32
	for _, f := range strings.Fields(string(data)) {
		v, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", f, err)
		}
		seeds = append(seeds, int32(v))
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds in %s", path)
	}
	return seeds, nil
}

// prewarmEngine builds the pools named by pw through the ordinary boost
// path, so the cache entries (and their result caches) are exactly what
// live queries will hit. The builds observe ctx: a shutdown signal
// during startup aborts the warm-up at the next shard boundary.
func prewarmEngine(ctx context.Context, eng *kboost.Engine, pw prewarmSpec) error {
	seeds, err := readSeedsFile(pw.seedsPath)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := eng.BoostContext(ctx, kboost.EngineBoostRequest{GraphID: pw.graphID, Seeds: seeds, K: pw.k})
	if err != nil {
		return err
	}
	log.Printf("prewarmed PRR pool %s (|seeds|=%d k=%d): %d samples in %s",
		pw.graphID, len(seeds), pw.k, res.Samples, time.Since(start).Round(time.Millisecond))
	if pw.sims > 0 {
		start = time.Now()
		ltRes, err := eng.BoostContext(ctx, kboost.EngineBoostRequest{GraphID: pw.graphID, Seeds: seeds, K: pw.k, Mode: "lt", Sims: pw.sims})
		if err != nil {
			return err
		}
		log.Printf("prewarmed LT pool %s (|seeds|=%d sims=%d): %d profiles in %s",
			pw.graphID, len(seeds), pw.sims, ltRes.Samples, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// generateDataset parses "name:scale:beta:seed" (trailing fields
// optional) and builds the synthetic stand-in.
func generateDataset(spec string) (*kboost.Graph, error) {
	parts := strings.Split(spec, ":")
	name := parts[0]
	scale, beta, seed := 0.01, 2.0, uint64(1)
	var err error
	if len(parts) > 1 {
		if scale, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return nil, fmt.Errorf("bad scale %q: %w", parts[1], err)
		}
	}
	if len(parts) > 2 {
		if beta, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return nil, fmt.Errorf("bad beta %q: %w", parts[2], err)
		}
	}
	if len(parts) > 3 {
		if seed, err = strconv.ParseUint(parts[3], 10, 64); err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", parts[3], err)
		}
	}
	if len(parts) > 4 {
		return nil, fmt.Errorf("too many fields (want name:scale:beta:seed)")
	}
	return kboost.GenerateDataset(name, scale, beta, seed)
}

// logRequests is a minimal request-logging middleware.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		log.Printf("%s %s -> %d in %s", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Millisecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}
