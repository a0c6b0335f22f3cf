// Command rana-serve (binary name: ranad) runs the RANA compilation
// service: an HTTP/JSON API over the three-stage framework with a plan
// cache, request dedup, a bounded worker pool and graceful shutdown.
//
// Usage:
//
//	ranad -addr :8080
//	ranad -addr 127.0.0.1:0 -workers 4 -cache 512 -timeout 30s
//
// The bound address is printed on startup (useful with port 0). On
// SIGINT/SIGTERM the listener closes immediately, in-flight requests get
// -drain to finish, and the process exits 0 after a clean drain.
//
// /v1/schedule requests open the Stage-2 search axes per request:
// "options": {"backend": ..., "traversal": "rtc", "mapping": "all"}
// (ParseTraversalSpec/ParseMappingSpec grammars; invalid specs are a
// 400). Default-axis requests keep their legacy cache keys — equivalent
// spellings collapse onto one canonical key — and /v1/catalog lists the
// traversal ladder and registered mapping policies. The degradation
// ladder's uniform fallback always pins the default order, so a
// deadline-squeezed request can never be handed an unverified reorder.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rana/internal/mem"
	"rana/internal/serve"
	"rana/internal/serve/chaos"
	"rana/internal/serve/shard"
	"rana/internal/serve/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point. ready, if non-nil, receives the bound
// address once the listener is up.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("ranad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	workers := fs.Int("workers", 0, "max concurrent schedule computations (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 256, "plan cache capacity in entries (negative disables)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout, including queueing")
	drain := fs.Duration("drain", 15*time.Second, "shutdown grace for in-flight requests")
	queue := fs.Int("queue", 0, "admission queue depth beyond the worker pool (0 = 4x workers, negative = none)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive panics/timeouts that open a key's circuit breaker (0 = 3, negative disables)")
	breakerBackoff := fs.Duration("breaker-backoff", time.Second, "first breaker open window; doubles per re-open")
	degradeBudget := fs.Duration("degrade-budget", 200*time.Millisecond, "deadlines below this get the uniform fallback schedule (negative disables)")
	beamBudget := fs.Duration("beam-budget", time.Second, "deadlines below this (but above -degrade-budget) run the beam search unless the request pins a strategy (negative disables)")
	parallelism := fs.Int("parallelism", 0, "per-layer search workers for requests that do not pin one (0 = GOMAXPROCS)")
	memoEntries := fs.Int("memo-entries", 0, "server-wide layer-shape memo capacity in frontier records (0 = default, negative disables)")
	chaosSpec := fs.String("chaos", "", `fault injection spec, e.g. "panic=7,latency=3:50ms,cancel=11,starve=13:200ms,seed=42" (testing only)`)
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end robustness selfcheck instead of serving; exit 0 on pass")
	quiet := fs.Bool("quiet", false, "suppress per-request logs")
	storePath := fs.String("store", "", "persistent plan store path; replayed into the cache on startup (empty disables)")
	storeSync := fs.Duration("store-sync", 0, "plan store fsync batching interval (0 = default 100ms, negative = fsync every put)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "plan store size bound; the log compacts down keeping newest entries (0 = unbounded)")
	peers := fs.String("peers", "", `fleet membership as "id=url,id=url"; requires -shard-id naming this node`)
	shardID := fs.String("shard-id", "", "this node's id within -peers")
	jobCap := fs.Int("jobs", 0, "async batch job table capacity (0 = 64, negative disables the batch API)")
	backendsFlag := fs.String("backends", "", "comma-separated memory-backend allowlist; requests naming any other backend get a 400 (empty = every registered backend; the default adapter is always admitted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selfcheck {
		return runSelfcheck(stdout, stderr)
	}

	var allowedBackends []string
	if *backendsFlag != "" {
		for _, name := range strings.Split(*backendsFlag, ",") {
			name = strings.TrimSpace(name)
			if _, ok := mem.Lookup(name); !ok {
				fmt.Fprintf(stderr, "ranad: -backends: unknown backend %q (have %s)\n",
					name, strings.Join(mem.Names(), ", "))
				return 2
			}
			allowedBackends = append(allowedBackends, name)
		}
	}

	var ring *shard.Ring
	switch {
	case *peers != "" && *shardID == "":
		fmt.Fprintln(stderr, "ranad: -peers requires -shard-id")
		return 2
	case *peers == "" && *shardID != "":
		fmt.Fprintln(stderr, "ranad: -shard-id requires -peers")
		return 2
	case *peers != "":
		nodes, err := shard.ParsePeers(*peers)
		if err != nil {
			fmt.Fprintln(stderr, "ranad:", err)
			return 2
		}
		r, err := shard.New(nodes, 0)
		if err != nil {
			fmt.Fprintln(stderr, "ranad:", err)
			return 2
		}
		if _, ok := r.Node(*shardID); !ok {
			fmt.Fprintf(stderr, "ranad: -shard-id %q is not in -peers\n", *shardID)
			return 2
		}
		ring = r
	}

	var planStore *store.Store
	if *storePath != "" {
		st, err := store.Open(*storePath, store.Options{
			SyncInterval: *storeSync,
			MaxBytes:     *storeMaxBytes,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(stderr, "ranad:", err)
			return 1
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(stderr, "ranad: store close:", err)
			}
		}()
		stats := st.Stats()
		fmt.Fprintf(stderr, "ranad: plan store %s: %d entries replayed (%d bytes", *storePath, stats.Replayed, stats.FileBytes)
		if stats.DroppedTailBytes > 0 {
			fmt.Fprintf(stderr, ", %d torn tail bytes dropped", stats.DroppedTailBytes)
		}
		fmt.Fprintln(stderr, ")")
		planStore = st
	}

	var injector *chaos.Injector
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(stderr, "ranad:", err)
			return 2
		}
		injector = chaos.New(cfg)
		fmt.Fprintf(stderr, "ranad: CHAOS MODE: injecting faults (%s)\n", *chaosSpec)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	srv := serve.New(serve.Config{
		Addr:             *addr,
		Workers:          *workers,
		CacheEntries:     *cache,
		RequestTimeout:   *timeout,
		QueueDepth:       *queue,
		RetryAfter:       *retryAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerBackoff:   *breakerBackoff,
		DegradeBudget:    *degradeBudget,
		BeamBudget:       *beamBudget,
		Parallelism:      *parallelism,
		MemoEntries:      *memoEntries,
		Chaos:            injector,
		Store:            planStore,
		Ring:             ring,
		ShardID:          *shardID,
		JobCapacity:      *jobCap,
		AllowedBackends:  allowedBackends,
		Logf: func(format string, args ...any) {
			if !*quiet {
				logf(format, args...)
			}
		},
	})

	// Signals are registered before the address is announced so no
	// caller can observe a live listener with the default (fatal)
	// SIGTERM disposition still in place.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ranad:", err)
		return 1
	}
	fmt.Fprintf(stdout, "ranad: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Serve until a termination signal, then drain.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Listener failed before any signal.
		fmt.Fprintln(stderr, "ranad:", err)
		return 1
	case sig := <-sigc:
		logf("ranad: %v: draining (up to %v)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "ranad: shutdown:", err)
		return 1
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(stderr, "ranad:", err)
		return 1
	}
	logf("ranad: drained, exiting")
	return 0
}
