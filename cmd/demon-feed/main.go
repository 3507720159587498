// Command demon-feed streams NDJSON blocks from stdin into a demon-serve
// namespace with exactly-once delivery: each input line gets a monotonic
// sequence number (its position in the stream), the server deduplicates
// re-sends and rejects gaps, and the client retries through resets, stalls,
// and restarts with capped jittered backoff and a circuit breaker.
//
// Usage:
//
//	demon-datagen -kind tx -format ndjson -blocks 16 -dir - |
//	    demon-feed -url http://127.0.0.1:8080 -ns retail
//
// On a re-run over the same input the already-ingested prefix is skipped
// (durable blocks) or acknowledged as duplicates — feeding is idempotent.
// The final checkpoint makes the whole stream durable before exit.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/client"
	"github.com/demon-mining/demon/internal/obs/log"
)

func main() { cli.Main("demon-feed", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	var cfg client.Config
	fs.StringVar(&cfg.BaseURL, "url", "http://127.0.0.1:8080", "demon-serve base URL")
	fs.StringVar(&cfg.Namespace, "ns", "", "target namespace (required)")
	fs.IntVar(&cfg.BatchSize, "batch", 16, "blocks per ingest request")
	fs.DurationVar(&cfg.RequestTimeout, "timeout", time.Minute, "per-request deadline")
	fs.IntVar(&cfg.MaxAttempts, "attempts", 8, "attempts per batch before giving up")
	ckptEvery := fs.Int("checkpoint-every", 0, "server checkpoint every N input blocks (0 = only at the end)")
	noSync := fs.Bool("no-sync", false, "skip the initial status sync (rely on duplicate acks alone)")
	noCkpt := fs.Bool("no-final-checkpoint", false, "skip the final flush+checkpoint")
	maxLine := fs.Int("max-line-bytes", 0, "reject stdin lines beyond this many bytes (0 = unlimited)")
	return func(ctx context.Context) error {
		if cfg.Namespace == "" {
			return cli.Usagef("-ns is required")
		}
		f, err := client.New(cfg)
		if err != nil {
			return cli.Usagef("bad config: %v", err)
		}
		return run(ctx, f, blockio.NewLineDecoder(os.Stdin, *maxLine), os.Stdout, *ckptEvery, !*noSync, !*noCkpt)
	}
}

// run streams the decoder's blocks through f and writes the one-line JSON
// summary to out.
func run(ctx context.Context, f *client.Feeder, dec *blockio.LineDecoder, out io.Writer, ckptEvery int, sync, finalCkpt bool) error {
	logger := log.Default()
	if sync {
		if err := f.Sync(ctx); err != nil {
			return fmt.Errorf("initial sync failed: %w", err)
		}
	}

	start := time.Now()
	var read int64
	for {
		b, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading stdin: %w", err)
		}
		read++
		for {
			err := f.Send(ctx, b)
			if err == nil {
				break
			}
			if !errors.Is(err, client.ErrBreakerOpen) {
				return fmt.Errorf("send failed at block %d: %w", read, err)
			}
			// The breaker fails fast; the stream has nowhere else to go, so
			// wait out the cooldown and probe again.
			logger.Warn("demon-feed: circuit breaker open; waiting")
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				return fmt.Errorf("interrupted: %w", ctx.Err())
			}
		}
		if ckptEvery > 0 && read%int64(ckptEvery) == 0 {
			if err := f.Checkpoint(ctx); err != nil {
				return fmt.Errorf("periodic checkpoint failed at block %d: %w", read, err)
			}
		}
	}
	if err := f.Flush(ctx); err != nil {
		return fmt.Errorf("final flush failed: %w", err)
	}
	if finalCkpt {
		if err := f.Checkpoint(ctx); err != nil {
			return fmt.Errorf("final checkpoint failed: %w", err)
		}
	}
	st := f.Stats()
	logger.Info("demon-feed: done",
		"read", read, "sent", st.Sent, "duplicates", st.Duplicates,
		"retries", st.Retries, "resyncs", st.Resyncs, "breaker_opens", st.BreakerOpens,
		"elapsed", time.Since(start).String())
	fmt.Fprintf(out, "{\"read\":%d,\"sent\":%d,\"duplicates\":%d,\"retries\":%d,\"resyncs\":%d}\n",
		read, st.Sent, st.Duplicates, st.Retries, st.Resyncs)
	return nil
}
