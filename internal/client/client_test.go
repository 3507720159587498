package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/itemset"
)

// fakeServer implements just enough of demon-serve's ingest contract to
// script failure sequences: it tracks a sequence high-water mark, dedupes,
// rejects gaps, and lets tests inject per-request behaviors.
type fakeServer struct {
	mu      sync.Mutex
	seq     uint64
	durable uint64
	blocks  []blockio.Block
	// script, when non-empty, overrides the next requests' handling; each
	// entry handles one POST /blocks.
	script []func(w http.ResponseWriter, r *http.Request) bool // true = handled
	posts  int
	// rollbacks is how many flushes restore the last checkpoint, as a
	// restart would, instead of taking one.
	rollbacks int
}

func (s *fakeServer) reply(w http.ResponseWriter, code int, accepted, duplicates int) {
	s.mu.Lock()
	next, durable := s.seq+1, s.durable
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"accepted": accepted, "duplicates": duplicates,
		"next_seq": next, "durable_seq": durable,
	})
}

func (s *fakeServer) handler(t *testing.T) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/namespaces/{name}/blocks", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.posts++
		var hook func(http.ResponseWriter, *http.Request) bool
		if len(s.script) > 0 {
			hook = s.script[0]
			s.script = s.script[1:]
		}
		s.mu.Unlock()
		if hook != nil && hook(w, r) {
			return
		}
		dec := blockio.NewLineDecoder(r.Body, 1<<20)
		accepted, duplicates := 0, 0
		for {
			b, err := dec.Next()
			if err != nil {
				break
			}
			s.mu.Lock()
			switch {
			case b.Seq <= s.seq:
				duplicates++
			case b.Seq == s.seq+1:
				s.seq = b.Seq
				s.blocks = append(s.blocks, b)
				accepted++
			default:
				s.mu.Unlock()
				s.reply(w, http.StatusConflict, accepted, duplicates)
				return
			}
			s.mu.Unlock()
		}
		if accepted == 0 && duplicates > 0 {
			s.reply(w, http.StatusOK, accepted, duplicates)
			return
		}
		s.reply(w, http.StatusAccepted, accepted, duplicates)
	})
	mux.HandleFunc("GET /v1/namespaces/{name}", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		next, durable := s.seq+1, s.durable
		s.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"next_seq": next, "durable_seq": durable, "healthy": true})
	})
	mux.HandleFunc("POST /v1/namespaces/{name}/flush", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		if s.rollbacks > 0 {
			s.rollbacks--
			s.blocks = s.blocks[:len(s.blocks)-int(s.seq-s.durable)]
			s.seq = s.durable
		}
		s.durable = s.seq
		next, durable := s.seq+1, s.durable
		s.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"next_seq": next, "durable_seq": durable, "healthy": true})
	})
	return mux
}

func txBlock(items ...itemset.Item) blockio.Block {
	return blockio.TxBlock([][]itemset.Item{items})
}

func newTestFeeder(t *testing.T, url string, mutate func(*Config)) *Feeder {
	t.Helper()
	cfg := Config{
		BaseURL:     url,
		Namespace:   "test",
		BatchSize:   4,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		Rand:        func() float64 { return 1 }, // deterministic max jitter
		Sleep:       func(ctx context.Context, d time.Duration) error { return nil },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("new feeder: %v", err)
	}
	return f
}

func TestFeedHappyPath(t *testing.T) {
	fs := &fakeServer{}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, nil)

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if fs.seq != 10 {
		t.Fatalf("server saw %d blocks, want 10", fs.seq)
	}
	st := f.Stats()
	if st.Sent != 10 || st.Duplicates != 0 {
		t.Fatalf("stats = %+v, want 10 sent", st)
	}
	if st.Buffered != 0 {
		t.Fatalf("replay buffer holds %d blocks after checkpoint, want 0", st.Buffered)
	}
}

func TestFeedRetriesTransportError(t *testing.T) {
	fs := &fakeServer{}
	// First two POSTs die mid-flight (ambiguous), then everything works.
	kill := func(w http.ResponseWriter, r *http.Request) bool {
		if hj, ok := w.(http.Hijacker); ok {
			conn, _, _ := hj.Hijack()
			conn.Close()
		}
		return true
	}
	fs.script = []func(http.ResponseWriter, *http.Request) bool{kill, kill}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, nil)

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if fs.seq != 4 {
		t.Fatalf("server saw %d blocks, want 4", fs.seq)
	}
	st := f.Stats()
	if st.Retries < 2 || st.Resyncs < 2 {
		t.Fatalf("stats = %+v, want >= 2 retries and resyncs", st)
	}
}

func TestFeedResendsAfterDuplicateAck(t *testing.T) {
	fs := &fakeServer{}
	// The server ingests the batch but the response is torn: the client
	// must resync, re-send, and get duplicate acks — no double ingestion.
	fs.script = []func(http.ResponseWriter, *http.Request) bool{
		func(w http.ResponseWriter, r *http.Request) bool {
			dec := blockio.NewLineDecoder(r.Body, 1<<20)
			for {
				b, err := dec.Next()
				if err != nil {
					break
				}
				fs.mu.Lock()
				if b.Seq == fs.seq+1 {
					fs.seq = b.Seq
					fs.blocks = append(fs.blocks, b)
				}
				fs.mu.Unlock()
			}
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
			}
			return true
		},
	}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, nil)

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(fs.blocks) != 4 {
		t.Fatalf("server ingested %d blocks, want exactly 4 (no double-count)", len(fs.blocks))
	}
}

func TestFeedHalvesBatchOn413(t *testing.T) {
	fs := &fakeServer{}
	too := func(w http.ResponseWriter, r *http.Request) bool {
		fs.reply(w, http.StatusRequestEntityTooLarge, 0, 0)
		return true
	}
	fs.script = []func(http.ResponseWriter, *http.Request) bool{too, too}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, nil)

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if f.batch != 1 {
		t.Fatalf("batch = %d after two 413s from 4, want 1", f.batch)
	}
	if fs.seq != 4 {
		t.Fatalf("server saw %d blocks, want 4", fs.seq)
	}
}

func TestFeedGivesUpOnPersistent413(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		fmt.Fprint(w, `{"error":"line too long"}`)
	}))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, func(c *Config) { c.BatchSize = 1 })

	ctx := context.Background()
	// At batch size 1 the Send itself flushes, so the error may surface on
	// either call.
	err := f.Send(ctx, txBlock(1))
	if err == nil {
		err = f.Flush(ctx)
	}
	if !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("feed = %v, want ErrBlockTooLarge", err)
	}
}

func TestFeedHonoursRetryAfter(t *testing.T) {
	fs := &fakeServer{}
	fs.script = []func(http.ResponseWriter, *http.Request) bool{
		func(w http.ResponseWriter, r *http.Request) bool {
			w.Header().Set("Retry-After", "3")
			fs.reply(w, http.StatusTooManyRequests, 0, 0)
			return true
		},
	}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	var slept []time.Duration
	f := newTestFeeder(t, srv.URL, func(c *Config) {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		}
	})

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(slept) == 0 || slept[0] < 3*time.Second {
		t.Fatalf("slept %v, want first delay >= the 3s Retry-After", slept)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	fs := &fakeServer{}
	kill := func(w http.ResponseWriter, r *http.Request) bool {
		if hj, ok := w.(http.Hijacker); ok {
			conn, _, _ := hj.Hijack()
			conn.Close()
		}
		return true
	}
	fs.script = []func(http.ResponseWriter, *http.Request) bool{kill, kill, kill, kill, kill, kill, kill, kill}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, func(c *Config) {
		c.BreakerThreshold = 3
		c.BreakerCooldown = 50 * time.Millisecond
		c.MaxAttempts = 100
	})

	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil && !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	err := f.Flush(ctx)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("flush during failure storm = %v, want ErrBreakerOpen", err)
	}
	if f.Stats().BreakerOpens != 1 {
		t.Fatalf("breaker opened %d times, want 1", f.Stats().BreakerOpens)
	}

	// After the cooldown the half-open probe goes through (script is
	// drained by then) and the stream completes.
	time.Sleep(60 * time.Millisecond)
	fs.mu.Lock()
	fs.script = nil
	fs.mu.Unlock()
	if err := f.Flush(ctx); err != nil {
		t.Fatalf("flush after cooldown: %v", err)
	}
	if fs.seq != 4 {
		t.Fatalf("server saw %d blocks, want 4", fs.seq)
	}
}

// TestCheckpointResendsAfterRollback: a server that restores its last
// checkpoint while the feeder asks for the next one has dropped the blocks
// past it. Checkpoint must send them again and return only once they are
// durable.
func TestCheckpointResendsAfterRollback(t *testing.T) {
	fs := &fakeServer{}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, nil)

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i == 3 {
			if err := f.Checkpoint(ctx); err != nil {
				t.Fatalf("checkpoint at 4: %v", err)
			}
			fs.mu.Lock()
			fs.rollbacks = 1
			fs.mu.Unlock()
		}
	}
	if err := f.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint at 10: %v", err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.durable != 10 || len(fs.blocks) != 10 {
		t.Fatalf("after the checkpoint the server holds %d blocks, %d durable; want 10 and 10", len(fs.blocks), fs.durable)
	}
	for i, b := range fs.blocks {
		if b.Seq != uint64(i+1) {
			t.Fatalf("server block %d has seq %d", i, b.Seq)
		}
	}
	if st := f.Stats(); st.Buffered != 0 {
		t.Fatalf("replay buffer holds %d blocks after the checkpoint, want 0", st.Buffered)
	}
}

func TestSyncSkipsDurablePrefix(t *testing.T) {
	fs := &fakeServer{seq: 6, durable: 4}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	f := newTestFeeder(t, srv.URL, nil)

	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Feed the same 10-block stream a prior run half-ingested: 1..4 are
	// durable (dropped), 5..6 applied (buffered only), 7..10 sent.
	for i := 0; i < 10; i++ {
		if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if fs.seq != 10 {
		t.Fatalf("server high-water = %d, want 10", fs.seq)
	}
	if len(fs.blocks) != 4 {
		t.Fatalf("server ingested %d new blocks, want 4 (seqs 7..10)", len(fs.blocks))
	}
	if st := f.Stats(); st.Sent != 4 {
		t.Fatalf("stats = %+v, want 4 sent", st)
	}
}

func TestRerunIsIdempotent(t *testing.T) {
	fs := &fakeServer{}
	srv := httptest.NewServer(fs.handler(t))
	defer srv.Close()
	ctx := context.Background()

	feed := func() {
		f := newTestFeeder(t, srv.URL, nil)
		for i := 0; i < 6; i++ {
			if err := f.Send(ctx, txBlock(itemset.Item(i))); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		if err := f.Flush(ctx); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	feed()
	feed() // the whole stream again, without Sync: all duplicate acks
	if len(fs.blocks) != 6 {
		t.Fatalf("server ingested %d blocks after double feed, want 6", len(fs.blocks))
	}
}

func TestSendRejectsMissingBufferEntry(t *testing.T) {
	f := newTestFeeder(t, "http://127.0.0.1:0", nil)
	f.nextSeq = 5
	f.sendFrom = 3 // 3 and 4 claimed unsent but never buffered
	err := f.flushLocked(context.Background())
	if err == nil || !strings.Contains(err.Error(), "replay buffer") {
		t.Fatalf("flush with holes = %v, want replay buffer error", err)
	}
}
