// Command popserve runs the simulation-as-a-service server: submit
// popstab.Spec configurations over HTTP, step/pause/resume the resulting
// sessions, fetch deterministic snapshots, resume them (here or on another
// popserve), long-poll or stream per-step stats, and fetch completed runs
// from the content-addressed result store. Identical submissions dedupe to
// one underlying run (the canonical-config-hash cache; Workers is excluded
// from the identity because simulation output is bit-identical across
// worker counts).
//
// With -checkpoint-dir the server is crash-safe: sessions checkpoint to
// disk on a round cadence and on graceful shutdown, and a restarted server
// rehydrates them and continues bit-identically — a SIGKILL loses at most
// the rounds since the last cadence checkpoint, never a session. SIGTERM
// drains cleanly: admissions stop (readyz flips to 503), in-flight quanta
// park, live sessions checkpoint, then the HTTP listener closes.
//
// popserve federates. One instance started with -coordinator routes
// submissions across workers that started with -join; the coordinator
// speaks the same /v1 API, so clients need not know they are talking to a
// fleet. Sessions migrate between workers over the snapshot wire codec
// (drain a worker via POST /v1/workers/{id}/drain), dead workers' sessions
// are replayed onto survivors, and the dedupe cache becomes a fleet-wide
// content-addressed result store.
//
// Examples:
//
//	popserve -addr :8080 -checkpoint-dir /var/lib/popserve
//	curl -s localhost:8080/v1/sessions -d '{"spec":{"n":4096,"tinner":24,"seed":1},"rounds":288}'
//	curl -s localhost:8080/v1/sessions/s-000001
//	curl -s localhost:8080/v1/sessions/s-000001/wait?status=done\&timeout=30s
//	curl -s localhost:8080/v1/sessions/s-000001/snapshot > snap.json
//	curl -s localhost:8080/v1/sessions -d "$(jq '{spec,snapshot,rounds:144}' snap.json)"
//	curl -N localhost:8080/v1/sessions/s-000001/stream
//	curl -s localhost:8080/v1/readyz
//	curl -s localhost:8080/v1/metrics
//	curl -s localhost:8080/v1/metrics?format=prometheus
//	curl -s -H 'X-Popstab-Trace: 0011223344556677' localhost:8080/v1/sessions -d '...'
//	curl -s localhost:8080/v1/trace/0011223344556677
//
// Fleet:
//
//	popserve -coordinator -addr :8090
//	popserve -addr :8091 -join http://localhost:8090
//	popserve -addr :8092 -join http://localhost:8090
//	curl -s localhost:8090/v1/sessions -d '{"spec":{"n":4096,"tinner":24,"seed":1},"rounds":288}'
//	curl -s localhost:8090/v1/workers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers registered on DefaultServeMux, exposed only behind -pprof
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"popstab/internal/cluster"
	"popstab/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("popserve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		maxConcurrent = fs.Int("max-concurrent", runtime.NumCPU(), "sessions stepping simultaneously")
		maxSessions   = fs.Int("max-sessions", 4096, "session registry bound (completed sessions included)")
		quantum       = fs.Int("quantum", 64, "rounds per scheduling slice (pause/snapshot latency bound)")
		workers       = fs.Int("session-workers", 1, "engine worker count of every session (overrides a spec's workers)")
		ckptDir       = fs.String("checkpoint-dir", "", "durable checkpoint directory (empty: in-memory only, no crash recovery)")
		ckptEvery     = fs.Int("checkpoint-every", 256, "rounds between durable checkpoints per session")
		sessionTTL    = fs.Duration("session-ttl", 0, "reap terminal sessions idle this long (0: keep forever)")
		gcInterval    = fs.Duration("gc-interval", 30*time.Second, "janitor cadence for TTL reaping and eviction")
		maxResident   = fs.Int("max-resident", 0, "sessions kept in memory before LRU hibernation to the checkpoint dir (0: max-sessions)")
		submitRate    = fs.Float64("submit-rate", 0, "admission gate: sustained submissions/sec (0: unlimited)")
		submitBurst   = fs.Int("submit-burst", 0, "admission gate: burst allowance (0: rate rounded up)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget (drain + final checkpoints)")
		pprofOn       = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the listen address")

		coordinator   = fs.Bool("coordinator", false, "run as a fleet coordinator instead of a worker (routes to -join'ed popserves)")
		workerTTL     = fs.Duration("worker-ttl", 10*time.Second, "coordinator: expire workers whose heartbeat is older than this (sessions fail over)")
		sweepInterval = fs.Duration("sweep-interval", 2*time.Second, "coordinator: expiry/failover pass cadence")
		join          = fs.String("join", "", "worker: coordinator base URL to register with (http://host:port)")
		advertise     = fs.String("advertise", "", "worker: base URL the coordinator should dial back (default: derived from -addr)")
		heartbeat     = fs.Duration("heartbeat", 2*time.Second, "worker: re-registration cadence (keep well under the coordinator's -worker-ttl)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Structured logs on stderr: the trace middleware's access lines carry
	// trace=<id>, which is what log-based correlation (and the federation
	// smoke test) greps for.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordinator {
		co := cluster.NewCoordinator(cluster.Config{
			WorkerTTL:     *workerTTL,
			SweepInterval: *sweepInterval,
			SubmitRate:    *submitRate,
			SubmitBurst:   *submitBurst,
		})
		srv := &http.Server{Handler: withPprof(cluster.NewHandler(co), *pprofOn), ReadHeaderTimeout: 10 * time.Second}
		errCh := make(chan error, 1)
		go func() { errCh <- srv.Serve(ln) }()
		log.Printf("popserve coordinating on %s (worker TTL %s, pprof %v)", ln.Addr(), *workerTTL, *pprofOn)
		select {
		case err := <-errCh:
			co.Close()
			return err
		case <-ctx.Done():
		}
		log.Printf("popserve coordinator draining (budget %s)", *drainTimeout)
		co.Close()
		shctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}

	cfg := serve.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxSessions:     *maxSessions,
		StepQuantum:     *quantum,
		SessionWorkers:  *workers,
		CheckpointEvery: *ckptEvery,
		SessionTTL:      *sessionTTL,
		GCInterval:      *gcInterval,
		MaxResident:     *maxResident,
		SubmitRate:      *submitRate,
		SubmitBurst:     *submitBurst,
	}
	if *ckptDir != "" {
		store, err := serve.NewFSStore(*ckptDir)
		if err != nil {
			ln.Close()
			return fmt.Errorf("checkpoint store: %w", err)
		}
		cfg.Store = store
	}

	m := serve.NewManager(cfg)
	if cfg.Store != nil {
		n, err := m.Recover()
		if err != nil {
			ln.Close()
			return fmt.Errorf("recover from %s: %w", *ckptDir, err)
		}
		if n > 0 {
			log.Printf("popserve recovered %d session(s) from %s", n, *ckptDir)
		}
	}

	srv := &http.Server{Handler: withPprof(serve.NewHandler(m), *pprofOn), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("popserve listening on %s (pool %d, quantum %d rounds, checkpoints %s, pprof %v)",
		ln.Addr(), *maxConcurrent, *quantum, describeStore(*ckptDir), *pprofOn)

	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = deriveAdvertise(ln.Addr())
		}
		var once sync.Once
		err := cluster.Join(ctx, cluster.JoinConfig{
			Coordinator: *join,
			Advertise:   adv,
			Readiness:   m.Readiness,
			Interval:    *heartbeat,
			OnRegister: func(reg cluster.RegisterResponse) {
				once.Do(func() { log.Printf("popserve joined %s as %s (advertising %s)", *join, reg.ID, adv) })
			},
		})
		if err != nil {
			m.Close()
			ln.Close()
			return err
		}
	}

	select {
	case err := <-errCh:
		m.Close()
		return err
	case <-ctx.Done():
	}

	// Ordered drain: stop admissions and park runners first (readyz flips
	// to 503 and open SSE streams end immediately), checkpoint every live
	// session, then close the listener — which can now finish because no
	// handler is stuck behind a stepping quantum. Heartbeats stopped with
	// ctx, so a coordinator fails our sessions over after its worker TTL.
	log.Printf("popserve draining (budget %s)", *drainTimeout)
	shctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := m.Shutdown(shctx); err != nil {
		log.Printf("popserve drain incomplete: %v", err)
	}
	if err := srv.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// withPprof exposes net/http/pprof's DefaultServeMux handlers under
// /debug/pprof/ when enabled; the v1 API is untouched either way.
func withPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.Handle("/", h)
	return mux
}

// deriveAdvertise turns the bound listener address into a dialable base
// URL: an unspecified host (":8080") advertises loopback.
func deriveAdvertise(a net.Addr) string {
	tcp, ok := a.(*net.TCPAddr)
	if !ok {
		return "http://" + a.String()
	}
	host := "127.0.0.1"
	if tcp.IP != nil && !tcp.IP.IsUnspecified() {
		host = tcp.IP.String()
	}
	return "http://" + net.JoinHostPort(host, strconv.Itoa(tcp.Port))
}

// describeStore renders the checkpoint configuration for the boot log line.
func describeStore(dir string) string {
	if dir == "" {
		return "off"
	}
	return "in " + dir
}
