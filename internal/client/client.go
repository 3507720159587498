// Package client is the resilient streaming ingest client behind
// cmd/demon-feed: it assigns monotonic sequence numbers to outgoing blocks,
// batches them into NDJSON POSTs against demon-serve's ingest API, and
// survives the network faults internal/chaos injects with one retry policy:
// per-attempt deadlines, capped exponential backoff with jitter honouring the
// server's Retry-After, a resync to the server's position after an
// ambiguous failure, a halved batch on 413, and a budget of attempts per
// batch. When the budget runs out the error is the caller's: a fresh Feeder
// over the same input resumes from the server's marks.
//
// Exactly-once delivery rests on the sequencing contract with the server:
// every block carries seq = 1, 2, 3, …; the server acknowledges duplicates
// as no-ops and rejects gaps, so the client may blindly re-send anything it
// is unsure about. Sent blocks stay in a replay buffer until the server
// reports them checkpoint-covered (durable_seq) — the only mark a crash
// cannot roll back — so even a server restart mid-stream loses nothing: the
// client resyncs to the restored position and re-sends from there.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/demon-mining/demon/internal/blockio"
)

// ErrBlockTooLarge reports a single block the server refuses even alone
// (HTTP 413 at batch size 1) — re-sending cannot help.
var ErrBlockTooLarge = errors.New("client: block exceeds server line cap")

// The retry backoff doubles from backoffBase up to backoffCap; the
// server's Retry-After raises a step's delay when it asks for more.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// Config configures a Feeder. Zero values select the documented defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Namespace is the target namespace name.
	Namespace string
	// HTTPClient optionally overrides http.DefaultClient.
	HTTPClient *http.Client
	// RequestTimeout bounds one POST attempt (default 1 minute).
	RequestTimeout time.Duration
	// MaxAttempts bounds how often one batch is tried before the feeder
	// gives up (default 8).
	MaxAttempts int
	// BatchSize is how many blocks ride in one POST (default 16). A 413
	// halves it, down to single blocks, for the rest of the feeder's life.
	BatchSize int
	// Rand injects the jitter source; rand.Float64 when nil. Tests pin it
	// for determinism.
	Rand func() float64
	// Sleep injects the backoff sleeper; a context-aware time.Sleep when
	// nil. Tests pin it to observe or skip delays.
	Sleep func(context.Context, time.Duration) error
}

// Stats counts what the feeder has been through.
type Stats struct {
	// Sent blocks were accepted by the server (first time).
	Sent int64
	// Duplicates were acknowledged as already-accepted no-ops.
	Duplicates int64
	// Retries counts re-attempted batch POSTs (backpressure included).
	Retries int64
	// Resyncs counts status round-trips after ambiguous failures.
	Resyncs int64
	// Buffered is the current replay-buffer size (blocks not yet
	// checkpoint-covered).
	Buffered int
}

// Feeder streams sequenced blocks into one namespace. Safe for use from one
// goroutine; wrap externally to share.
type Feeder struct {
	cfg Config
	hc  *http.Client

	mu       sync.Mutex
	buf      []blockio.Block // seqs durable+1 … nextSeq−1, in order
	nextSeq  uint64          // next sequence number to assign
	sendFrom uint64          // next sequence number the server wants
	durable  uint64          // highest checkpoint-covered sequence (trim point)
	batch    int

	stats Stats
}

// New builds a Feeder. It performs no I/O; call Sync to adopt the server's
// position, or just start Sending — duplicates are free.
func New(cfg Config) (*Feeder, error) {
	if cfg.BaseURL == "" || cfg.Namespace == "" {
		return nil, fmt.Errorf("client: config needs BaseURL and Namespace")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return &Feeder{
		cfg:      cfg,
		hc:       cfg.HTTPClient,
		nextSeq:  1,
		sendFrom: 1,
		batch:    cfg.BatchSize,
	}, nil
}

// Stats returns a snapshot of the feeder's counters.
func (f *Feeder) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Buffered = len(f.buf)
	return st
}

// Seq returns the next sequence number Send will assign.
func (f *Feeder) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextSeq
}

// Send assigns the next sequence number to b and buffers it, flushing a
// full batch to the server when one has accumulated. Blocks the server
// already holds durably are dropped; blocks it holds non-durably are
// buffered for potential replay but not re-sent.
func (f *Feeder) Send(ctx context.Context, b blockio.Block) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq := f.nextSeq
	f.nextSeq++
	if seq <= f.durable {
		return nil // checkpoint-covered: can never be needed again
	}
	b.Seq = seq
	f.buf = append(f.buf, b)
	if f.nextSeq > f.sendFrom && f.nextSeq-f.sendFrom >= uint64(f.batch) {
		return f.flushLocked(ctx)
	}
	return nil
}

// Flush sends every assigned-but-unsent block.
func (f *Feeder) Flush(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushLocked(ctx)
}

func (f *Feeder) flushLocked(ctx context.Context) error {
	for f.sendFrom < f.nextSeq {
		if err := f.sendBatch(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint asks the server to flush its queue and checkpoint the model,
// promoting everything sent so far to durable, then trims the replay
// buffer. It returns nil only once the server reports every block assigned
// before the call durable: a server that restored behind them in between (a
// restart, a reopen) is sent the replay buffer again and asked again, up to
// MaxAttempts times. Call it periodically on long streams to bound buffer
// growth, and once at the end so a later crash cannot roll the tail back.
func (f *Feeder) Checkpoint(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	want := f.nextSeq - 1
	for attempt := 1; ; attempt++ {
		if err := f.flushLocked(ctx); err != nil {
			return err
		}
		st, err := f.postFlush(ctx)
		if err != nil {
			return err
		}
		f.adopt(st)
		if f.durable >= want {
			return nil
		}
		if attempt >= f.cfg.MaxAttempts {
			return fmt.Errorf("client: checkpoint of seq %d left %d durable after %d attempts", want, f.durable, attempt)
		}
	}
}

// Sync adopts the server's current position: where to send from, and what
// is already durable. After an ambiguous failure or a server restart this
// is how the feeder finds out what actually survived.
func (f *Feeder) Sync(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncLocked(ctx)
}

func (f *Feeder) syncLocked(ctx context.Context) error {
	f.stats.Resyncs++
	st, err := f.getStatus(ctx)
	if err != nil {
		return err
	}
	f.adopt(st)
	return nil
}

// nsState is the slice of the server's status document the feeder needs.
type nsState struct {
	NextSeq    uint64 `json:"next_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	Healthy    bool   `json:"healthy"`
}

// adopt applies a server position. sendFrom may move backwards (a restart
// rolled uncheckpointed blocks out of the model) — the replay buffer still
// holds everything past the durable mark, so re-sending just works. It may
// also sit ahead of everything assigned so far (resuming a half-ingested
// stream): blocks below it are then buffered or dropped, never re-sent —
// sequence numbers are positions in the input stream, so assignment never
// skips forward.
func (f *Feeder) adopt(st nsState) {
	if st.DurableSeq > f.durable {
		n := min(st.DurableSeq-f.durable, uint64(len(f.buf)))
		clear(f.buf[:n])
		f.buf = f.buf[n:]
		f.durable = st.DurableSeq
	}
	if st.NextSeq > 0 {
		f.sendFrom = st.NextSeq
	}
	f.sendFrom = max(f.sendFrom, f.durable+1)
}

// ingestReply is the slice of the server's ingest result the feeder needs.
type ingestReply struct {
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
	NextSeq    uint64 `json:"next_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	Error      string `json:"error"`
}

// sendBatch tries one batch until it is accepted or attempts run out. It
// owns the retry policy; f.mu is held throughout (the feeder is a
// single-stream pipeline — there is nothing useful to admit while the head
// of the line cannot be delivered).
func (f *Feeder) sendBatch(ctx context.Context) error {
	var backoff time.Duration
	for attempt := 0; ; attempt++ {
		if f.sendFrom >= f.nextSeq {
			return nil // a resync or a backpressure reply says the server holds it all
		}
		if attempt > 0 {
			f.stats.Retries++
			if attempt >= f.cfg.MaxAttempts {
				return fmt.Errorf("client: batch at seq %d failed after %d attempts", f.sendFrom, attempt)
			}
			if err := f.cfg.Sleep(ctx, backoff); err != nil {
				return err
			}
		}
		reply, status, err := f.postBatch(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			// Transport-level failure: ambiguous — the server may have
			// accepted any prefix. Resync to learn the true position
			// before re-sending.
			backoff = f.nextBackoff(backoff, "")
			if serr := f.syncLocked(ctx); serr != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}

		switch status {
		case http.StatusAccepted, http.StatusOK:
			f.stats.Sent += int64(reply.Accepted)
			f.stats.Duplicates += int64(reply.Duplicates)
			f.adopt(nsState{NextSeq: reply.NextSeq, DurableSeq: reply.DurableSeq})
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Backpressure: the server says how far it got and (via
			// Retry-After) when to come back. Partial progress resets the
			// attempt budget.
			f.stats.Sent += int64(reply.Accepted)
			f.stats.Duplicates += int64(reply.Duplicates)
			f.adopt(nsState{NextSeq: reply.NextSeq, DurableSeq: reply.DurableSeq})
			if reply.Accepted > 0 {
				attempt = 0
			}
			backoff = f.nextBackoff(backoff, reply.retryAfter)
			continue
		case http.StatusRequestEntityTooLarge:
			if f.batch > 1 {
				f.batch = max(1, f.batch/2)
				continue // immediately, with the smaller batch
			}
			return fmt.Errorf("%w: seq %d: %s", ErrBlockTooLarge, f.sendFrom, reply.Error)
		case http.StatusConflict:
			// Sequence disagreement or a just-reopened namespace: adopt the
			// server's position and re-send from there.
			backoff = f.nextBackoff(backoff, "")
			if serr := f.syncLocked(ctx); serr != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		default:
			return fmt.Errorf("client: ingest of seq %d: HTTP %d: %s", f.sendFrom, status, reply.Error)
		}
	}
}

// replyWithHeader carries the Retry-After header alongside the body.
type replyWithHeader struct {
	ingestReply
	retryAfter string
}

// postBatch POSTs blocks [sendFrom, min(sendFrom+batch, nextSeq)) under a
// per-attempt deadline. The body is rebuilt from the replay buffer each
// attempt, because sendFrom moves as the server acknowledges prefixes.
func (f *Feeder) postBatch(ctx context.Context) (replyWithHeader, int, error) {
	end := f.sendFrom + uint64(f.batch)
	if end > f.nextSeq {
		end = f.nextSeq
	}
	var body bytes.Buffer
	enc := blockio.NewEncoder(&body)
	for _, b := range f.buf[f.sendFrom-f.durable-1 : end-f.durable-1] {
		if err := enc.Encode(b); err != nil {
			return replyWithHeader{}, 0, err
		}
	}

	rctx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		f.cfg.BaseURL+"/v1/namespaces/"+f.cfg.Namespace+"/blocks", bytes.NewReader(body.Bytes()))
	if err != nil {
		return replyWithHeader{}, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := f.hc.Do(req)
	if err != nil {
		return replyWithHeader{}, 0, err
	}
	defer resp.Body.Close()
	var out replyWithHeader
	out.retryAfter = resp.Header.Get("Retry-After")
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return replyWithHeader{}, 0, err
	}
	// A non-JSON error body (proxy, panic page) is fine — classification
	// runs on the status code; the reply fields just stay zero.
	_ = json.Unmarshal(data, &out.ingestReply)
	return out, resp.StatusCode, nil
}

// getStatus fetches the namespace status document.
func (f *Feeder) getStatus(ctx context.Context) (nsState, error) {
	rctx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		f.cfg.BaseURL+"/v1/namespaces/"+f.cfg.Namespace, nil)
	if err != nil {
		return nsState{}, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nsState{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nsState{}, fmt.Errorf("client: status of %s: HTTP %d", f.cfg.Namespace, resp.StatusCode)
	}
	var st nsState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nsState{}, err
	}
	return st, nil
}

// postFlush asks the server to drain the namespace queue and checkpoint.
func (f *Feeder) postFlush(ctx context.Context) (nsState, error) {
	rctx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		f.cfg.BaseURL+"/v1/namespaces/"+f.cfg.Namespace+"/flush?checkpoint=1", nil)
	if err != nil {
		return nsState{}, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nsState{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nsState{}, fmt.Errorf("client: flush of %s: HTTP %d: %s", f.cfg.Namespace, resp.StatusCode, data)
	}
	var st nsState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nsState{}, err
	}
	return st, nil
}

// nextBackoff doubles the delay up to the cap, applies full jitter in
// [delay/2, delay], and honours a server Retry-After asking for more.
func (f *Feeder) nextBackoff(prev time.Duration, retryAfter string) time.Duration {
	next := prev * 2
	if next <= 0 {
		next = backoffBase
	}
	if next > backoffCap {
		next = backoffCap
	}
	jittered := next/2 + time.Duration(f.cfg.Rand()*float64(next/2))
	if secs, err := strconv.Atoi(retryAfter); err == nil {
		if server := time.Duration(secs) * time.Second; server > jittered {
			jittered = server
		}
	}
	return jittered
}
