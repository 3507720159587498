// Command demon-serve is the resident mining server: miners and monitors
// stay in memory between blocks, absorbing streamed NDJSON blocks per
// namespace and serving model queries while they do — DEMON's monitoring of
// evolving data as a long-running service instead of a batch CLI.
//
// Usage:
//
//	demon-serve -root state/ -addr :8080
//	demon-serve -root state/ -addr :8080 -queue-depth 128 -drain-timeout 1m
//
// Each namespace is one model/config (frequent itemsets, a sliding window,
// clusters, or a pattern monitor) over its own crash-safe store directory
// under -root. Namespaces are created over the API and resumed automatically
// on restart:
//
//	curl -X POST localhost:8080/v1/namespaces \
//	     -d '{"name":"retail","kind":"itemset","min_support":0.01,"strategy":"ecut"}'
//	demon-datagen -kind tx -format ndjson -dir - |
//	     demon-feed -url http://localhost:8080 -ns retail
//	curl 'localhost:8080/v1/namespaces/retail/itemsets?top=10'
//
// Ingestion is backpressured: when a namespace's bounded queue is full the
// server answers 429 with a jittered Retry-After hint and the count of
// blocks it did accept, and the client resumes the stream from there.
// Sequenced streams (demon-feed's default) get exactly-once semantics:
// duplicates are acknowledged as no-ops, gaps rejected. The server is
// hardened against slow and hostile clients: http.Server timeouts
// (-http-*-timeout), a request body cap (-max-ingest-bytes) and a per-block
// line cap (-max-line-bytes) answering 413, and sticky-failed namespaces
// reopen themselves from their stores with capped backoff.
//
// Requests carrying an X-Demon-Trace-Id header are traced end to end (HTTP
// handler, queue wait, miner AddBlock, transaction commit) and retrievable
// at /tracez?id=...; -trace-sample traces a fraction of the rest. /readyz
// reports per-namespace readiness, /metricsz?format=prometheus the metrics
// in Prometheus exposition format, and -log-level/-log-format control the
// structured stderr log.
//
// On SIGTERM/SIGINT the server stops intake (503), drains every queue —
// each in-flight block finishing its atomic store transaction — checkpoints
// every model, and exits; a restart resumes exactly where the drain left
// off. A hard kill loses nothing either: the per-block transactions recover
// on the next start.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
	"github.com/demon-mining/demon/internal/serve"
)

func main() { cli.Main("demon-serve", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	var cfg serve.Config
	timeouts := serve.DefaultHTTPTimeouts()
	fs.StringVar(&cfg.Root, "root", "demon-serve-state", "directory holding one store per namespace")
	addr := fs.String("addr", "localhost:8080", "listen address")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", serve.DefaultQueueDepth, "default per-namespace ingest queue bound")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long shutdown may spend draining queues and checkpointing")
	fs.Int64Var(&cfg.MaxIngestBytes, "max-ingest-bytes", serve.DefaultMaxIngestBytes, "cap one ingest request body (413 beyond; negative = unlimited)")
	fs.IntVar(&cfg.MaxLineBytes, "max-line-bytes", serve.DefaultMaxLineBytes, "cap one NDJSON block line (413 beyond; negative = unlimited)")
	fs.DurationVar(&cfg.ReopenBackoff, "reopen-backoff", serve.DefaultReopenBackoff, "base delay before a sticky-failed namespace reopens from its store (negative = disabled)")
	fs.StringVar(&cfg.DefaultStoreBackend, "store-backend", "", "storage backend of namespaces whose spec does not pick one: file (default) or kvfile")
	fs.DurationVar(&timeouts.ReadHeader, "http-read-header-timeout", timeouts.ReadHeader, "http.Server ReadHeaderTimeout (Slowloris guard)")
	fs.DurationVar(&timeouts.Read, "http-read-timeout", timeouts.Read, "http.Server ReadTimeout (whole request, streamed ingest body included)")
	fs.DurationVar(&timeouts.Write, "http-write-timeout", timeouts.Write, "http.Server WriteTimeout (whole response)")
	fs.DurationVar(&timeouts.Idle, "http-idle-timeout", timeouts.Idle, "http.Server IdleTimeout (keep-alive connections between requests)")
	fs.MetricsOutFlag()
	fs.TraceSampleFlag()
	return func(ctx context.Context) error {
		obs.Enable()
		ln, err := net.Listen("tcp", *addr)
		if err == nil {
			err = run(ctx, cfg, timeouts, ln, *drainTimeout)
		}
		if err != nil {
			log.Default().Error("fatal", "err", err.Error())
		}
		return err
	}
}

// run serves on ln until ctx is cancelled, then drains: intake stops, every
// queue empties, every model checkpoints. It closes ln.
func run(ctx context.Context, cfg serve.Config, timeouts serve.HTTPTimeouts, ln net.Listener, drainTimeout time.Duration) error {
	srv, err := serve.New(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	for _, n := range srv.Namespaces() {
		log.Default().Info("resumed namespace", "ns", n.Spec().Name, "kind", string(n.Spec().Kind), "t", int64(n.T()))
	}

	hs := timeouts.Server(ln.Addr().String(), srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Default().Info("listening", "addr", ln.Addr().String(), "root", cfg.Root)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	log.Default().Info("draining (new intake rejected)")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	for _, n := range srv.Namespaces() {
		log.Default().Info("namespace checkpointed", "ns", n.Spec().Name, "t", int64(n.T()))
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
