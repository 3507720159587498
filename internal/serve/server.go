// Package serve is the resident mining server behind cmd/demon-serve: a
// multi-tenant registry of namespaces (one resident miner or monitor per
// model/config, each over its own crash-safe store), a streaming NDJSON
// ingestion API with bounded per-namespace queues and backpressure, query
// endpoints served concurrently from the miners' RWMutex read surfaces, and
// a graceful drain that rides the transaction/checkpoint machinery so a
// shutdown mid-stream never loses or corrupts state.
//
// Zero-dependency by design: net/http + encoding/json, like the rest of the
// repository.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
)

// DefaultQueueDepth bounds a namespace's ingest queue when neither the
// server config nor the namespace spec says otherwise.
const DefaultQueueDepth = 64

// Ingest body caps: a single request may stream many NDJSON blocks, so the
// body cap is generous, while the per-line cap bounds what one block may
// cost to buffer. Both are configurable.
const (
	DefaultMaxIngestBytes = 256 << 20
	DefaultMaxLineBytes   = 16 << 20
)

// DefaultReopenBackoff is the base delay before a sticky-failed namespace
// attempts to resume a fresh model generation from its store.
const DefaultReopenBackoff = time.Second

// Config configures a Server.
type Config struct {
	// Root is the directory holding one sub-directory per namespace. It is
	// created if missing; existing namespaces under it are resumed.
	Root string
	// QueueDepth is the default per-namespace ingest queue bound
	// (DefaultQueueDepth when zero); a namespace spec may override it.
	QueueDepth int
	// MaxIngestBytes caps one ingest request's body (DefaultMaxIngestBytes
	// when zero, unlimited when negative). Oversized requests get 413.
	MaxIngestBytes int64
	// MaxLineBytes caps one NDJSON line — one block — of an ingest stream
	// (DefaultMaxLineBytes when zero, unlimited when negative).
	MaxLineBytes int
	// ReopenBackoff is the base delay of the per-namespace auto-reopen loop
	// that resumes sticky-failed miners from their stores
	// (DefaultReopenBackoff when zero, disabled when negative).
	ReopenBackoff time.Duration
	// DefaultStoreBackend is the storage backend of namespaces whose spec
	// does not pick one: "file" (default when empty) or "kvfile". Existing
	// namespaces persist their backend in the spec at creation, so changing
	// this only affects namespaces created afterwards.
	DefaultStoreBackend string
}

// maxIngestBytes resolves the body cap (0 means unlimited).
func (c Config) maxIngestBytes() int64 {
	switch {
	case c.MaxIngestBytes < 0:
		return 0
	case c.MaxIngestBytes == 0:
		return DefaultMaxIngestBytes
	default:
		return c.MaxIngestBytes
	}
}

// maxLineBytes resolves the per-line cap (0 means unlimited).
func (c Config) maxLineBytes() int {
	switch {
	case c.MaxLineBytes < 0:
		return 0
	case c.MaxLineBytes == 0:
		return DefaultMaxLineBytes
	default:
		return c.MaxLineBytes
	}
}

// storeBackend resolves the default storage backend ("file" when unset).
func (c Config) storeBackend() string {
	if c.DefaultStoreBackend == "" {
		return "file"
	}
	return c.DefaultStoreBackend
}

// reopenBackoff resolves the auto-reopen base delay (0 means disabled).
func (c Config) reopenBackoff() time.Duration {
	switch {
	case c.ReopenBackoff < 0:
		return 0
	case c.ReopenBackoff == 0:
		return DefaultReopenBackoff
	default:
		return c.ReopenBackoff
	}
}

// Server is the resident mining server: a registry of namespaces plus the
// HTTP API over them.
type Server struct {
	cfg Config

	mu       sync.RWMutex
	ns       map[string]*Namespace
	draining bool
}

// New opens a server over cfg.Root, resuming every namespace already on
// disk from its store — a server killed mid-block comes back at its last
// durable state.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("serve: config needs a root directory")
	}
	switch cfg.DefaultStoreBackend {
	case "", "file", "kvfile":
	default:
		return nil, fmt.Errorf("serve: unknown default store backend %q (want file or kvfile)", cfg.DefaultStoreBackend)
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ns: make(map[string]*Namespace)}

	entries, err := os.ReadDir(cfg.Root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(cfg.Root, e.Name())
		spec, err := readSpec(dir)
		if errors.Is(err, os.ErrNotExist) {
			continue // not a namespace directory
		}
		if err != nil {
			return nil, fmt.Errorf("serve: resuming %s: %w", e.Name(), err)
		}
		if spec.Name != e.Name() {
			return nil, fmt.Errorf("serve: namespace directory %s holds spec named %q", e.Name(), spec.Name)
		}
		n, err := openNamespace(dir, spec, cfg.QueueDepth, cfg.reopenBackoff(), cfg.storeBackend())
		if err != nil {
			return nil, err
		}
		s.ns[spec.Name] = n
	}

	// Per-namespace gauges use the "name|k=v" label convention the
	// Prometheus writer parses (internal/obs/prom.go), so one metric family
	// fans across namespaces as label values instead of minting a family per
	// namespace. Ingest lag is queue depth plus the age of the
	// oldest-enqueued block still waiting.
	reg := obs.Default()
	reg.AddCollector(func(r *obs.Registry) {
		now := time.Now()
		for _, n := range s.Namespaces() {
			labels := "|ns=" + n.spec.Name
			depth, _ := n.QueueDepth()
			r.Gauge("serve.queue.depth" + labels).Set(int64(depth))
			r.Gauge("serve.blocks.accepted" + labels).Set(n.accepted.Load())
			r.Gauge("serve.blocks.applied" + labels).Set(n.applied.Load())
			r.Gauge("serve.blocks.rejected" + labels).Set(n.rejected.Load())
			r.Gauge("serve.blocks.failed" + labels).Set(n.failed.Load())
			r.Gauge("serve.blocks.duplicate" + labels).Set(n.duplicates.Load())
			r.Gauge("serve.reopens" + labels).Set(n.reopens.Load())
			r.Gauge("serve.t" + labels).Set(int64(n.T()))
			accepted, applied, durable := n.Seq()
			r.Gauge("serve.seq.accepted" + labels).Set(int64(accepted))
			r.Gauge("serve.seq.applied" + labels).Set(int64(applied))
			r.Gauge("serve.seq.durable" + labels).Set(int64(durable))
			r.Gauge("serve.ingest.oldest.age.ns" + labels).Set(n.ages.oldestAge(now).Nanoseconds())
		}
	})
	obs.RegisterRuntimeCollector(reg)
	log.Default().Info("server open", "root", cfg.Root, "namespaces", len(s.ns))
	return s, nil
}

// Namespaces lists the current namespaces sorted by name.
func (s *Server) Namespaces() []*Namespace {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Namespace, 0, len(s.ns))
	for _, n := range s.ns {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Name < out[j].spec.Name })
	return out
}

// Namespace returns one namespace by name.
func (s *Server) Namespace(name string) (*Namespace, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.ns[name]
	return n, ok
}

// Create validates the spec, persists it, and opens the namespace.
func (s *Server) Create(spec Spec) (*Namespace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if _, ok := s.ns[spec.Name]; ok {
		return nil, fmt.Errorf("serve: namespace %s already exists", spec.Name)
	}
	// Stamp the resolved backend into the spec before persisting it: the
	// backend a namespace was created with must survive server restarts even
	// if the server's default changes.
	if spec.Store == "" {
		spec.Store = s.cfg.storeBackend()
	}
	dir := filepath.Join(s.cfg.Root, spec.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpec(dir, spec); err != nil {
		return nil, err
	}
	n, err := openNamespace(dir, spec, s.cfg.QueueDepth, s.cfg.reopenBackoff(), s.cfg.storeBackend())
	if err != nil {
		return nil, err
	}
	s.ns[spec.Name] = n
	log.Default().Info("namespace created", "ns", spec.Name, "kind", string(spec.Kind))
	return n, nil
}

// Delete drains a namespace and removes it, including its on-disk state.
func (s *Server) Delete(ctx context.Context, name string) error {
	s.mu.Lock()
	n, ok := s.ns[name]
	if ok {
		delete(s.ns, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: namespace %s not found", name)
	}
	// Drain applies what was already accepted; a sticky failure must not
	// block deletion, so only the removal error is fatal here.
	_ = n.Drain(ctx)
	log.Default().Info("namespace deleted", "ns", name)
	return n.removeDir()
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Drain stops intake on every namespace, waits for their queues to empty
// (each in-flight block finishing its atomic transaction), and checkpoints
// every model. After Drain returns nil every namespace's store is at a
// consistent, resumable position. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	log.Default().Info("drain started", "namespaces", len(s.Namespaces()))

	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for _, n := range s.Namespaces() {
		wg.Add(1)
		go func(n *Namespace) {
			defer wg.Done()
			if err := n.Drain(ctx); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}(n)
	}
	wg.Wait()
	select {
	case err := <-errs:
		log.Default().Error("drain failed", "err", err)
		return err
	default:
		log.Default().Info("drain complete")
		return nil
	}
}

// ---- HTTP API ----

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// ingestResult reports how far an ingest request got. On backpressure the
// client re-sends the stream from Accepted blocks in; on a sequenced stream
// NextSeq says exactly which block the server wants next, and DurableSeq is
// the checkpoint-covered mark the client may trim its replay buffer to.
type ingestResult struct {
	// Accepted blocks were enqueued and will be applied (drain included).
	Accepted int `json:"accepted"`
	// Duplicates counts sequenced blocks acknowledged as already-accepted
	// no-ops; Duplicate marks a request that was entirely duplicates — an
	// idempotent success (HTTP 200, not 202).
	Duplicates int  `json:"duplicates,omitempty"`
	Duplicate  bool `json:"duplicate,omitempty"`
	// Enqueued is the queue depth after the request (a congestion hint).
	Enqueued int `json:"enqueued"`
	// NextSeq is the sequence number the namespace expects next (0 while
	// unsequenced); DurableSeq is the highest checkpoint-covered sequence.
	NextSeq    uint64 `json:"next_seq,omitempty"`
	DurableSeq uint64 `json:"durable_seq,omitempty"`
	Error      string `json:"error,omitempty"`
}

// nsStatus is the status document of one namespace. The seq fields expose
// the three durability marks of a sequenced stream: Seq was admitted,
// AppliedSeq committed to the store, DurableSeq covered by a checkpoint.
// NextSeq is what a resyncing client should send next.
type nsStatus struct {
	Spec       Spec          `json:"spec"`
	T          demon.BlockID `json:"t"`
	QueueDepth int           `json:"queue_depth"`
	QueueCap   int           `json:"queue_cap"`
	Accepted   int64         `json:"blocks_accepted"`
	Applied    int64         `json:"blocks_applied"`
	Rejected   int64         `json:"blocks_rejected"`
	Failed     int64         `json:"blocks_failed"`
	Duplicates int64         `json:"blocks_duplicate,omitempty"`
	Seq        uint64        `json:"seq,omitempty"`
	AppliedSeq uint64        `json:"applied_seq,omitempty"`
	DurableSeq uint64        `json:"durable_seq,omitempty"`
	NextSeq    uint64        `json:"next_seq"`
	Reopens    int64         `json:"reopens,omitempty"`
	Healthy    bool          `json:"healthy"`
	Error      string        `json:"error,omitempty"`
}

func (n *Namespace) status() nsStatus {
	depth, capacity := n.QueueDepth()
	accepted, applied, durable := n.Seq()
	st := nsStatus{
		Spec:       n.spec,
		T:          n.T(),
		QueueDepth: depth,
		QueueCap:   capacity,
		Accepted:   n.accepted.Load(),
		Applied:    n.applied.Load(),
		Rejected:   n.rejected.Load(),
		Failed:     n.failed.Load(),
		Duplicates: n.duplicates.Load(),
		Seq:        accepted,
		AppliedSeq: applied,
		DurableSeq: durable,
		NextSeq:    accepted + 1,
		Reopens:    n.reopens.Load(),
		Healthy:    true,
	}
	if err := n.Err(); err != nil {
		st.Healthy = false
		st.Error = err.Error()
	}
	return st
}

// itemsetJSON is one itemset with support in query responses.
type itemsetJSON struct {
	Items   []int32 `json:"items"`
	Count   int     `json:"count"`
	Support float64 `json:"support"`
}

func toItemsetJSON(xs []demon.ItemsetSupport) []itemsetJSON {
	out := make([]itemsetJSON, len(xs))
	for i, x := range xs {
		items := make([]int32, len(x.Itemset))
		for j, it := range x.Itemset {
			items[j] = int32(it)
		}
		out[i] = itemsetJSON{Items: items, Count: x.Count, Support: x.Support}
	}
	return out
}

// ruleJSON is one association rule in query responses.
type ruleJSON struct {
	Antecedent []int32 `json:"antecedent"`
	Consequent []int32 `json:"consequent"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// clusterJSON is one cluster in query responses.
type clusterJSON struct {
	Centroid []float64 `json:"centroid"`
	N        int       `json:"n"`
	Radius   float64   `json:"radius"`
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/namespaces                     create (Spec as JSON body)
//	GET    /v1/namespaces                     list statuses
//	GET    /v1/namespaces/{name}              one status
//	DELETE /v1/namespaces/{name}              drain + remove (state included)
//	POST   /v1/namespaces/{name}/blocks       ingest NDJSON blocks
//	POST   /v1/namespaces/{name}/flush        wait for the queue to empty
//	                                          (?checkpoint=1 checkpoints too)
//	GET    /v1/namespaces/{name}/itemsets     frequent itemsets (?top=N)
//	GET    /v1/namespaces/{name}/border       negative border
//	GET    /v1/namespaces/{name}/rules        association rules (?minconf=C)
//	GET    /v1/namespaces/{name}/clusters     clusters
//	GET    /v1/namespaces/{name}/patterns     deviation report: compact
//	                                          sequences (+?a=&b= similarity)
//	GET    /readyz                            readiness: per-namespace
//	                                          resume/drain state (503 while
//	                                          draining or after failures)
//	GET    /healthz /versionz /metricsz /namespacesz /tracez /debug/pprof/
func (s *Server) Handler() http.Handler {
	mux := obs.DebugMux(obs.Default())

	// The server's health answers 503 once draining so load balancers stop
	// routing to it; the DebugMux default would keep saying ok.
	mux.Handle("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			obs.WriteJSONError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	}))

	// Readiness is distinct from liveness: a live server may still be unfit
	// for traffic (draining, or every namespace sticky-failed). Reports the
	// per-namespace resume/drain state so an operator can see which tenant
	// is unhealthy.
	mux.Handle("GET /readyz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		type nsReady struct {
			Name       string `json:"name"`
			Kind       string `json:"kind"`
			Ready      bool   `json:"ready"`
			QueueDepth int    `json:"queue_depth"`
			QueueCap   int    `json:"queue_cap"`
			T          int64  `json:"t"`
			Error      string `json:"error,omitempty"`
		}
		type readiness struct {
			Ready      bool      `json:"ready"`
			Draining   bool      `json:"draining"`
			Namespaces []nsReady `json:"namespaces"`
		}
		rep := readiness{Ready: true, Draining: s.Draining(), Namespaces: []nsReady{}}
		if rep.Draining {
			rep.Ready = false
		}
		for _, n := range s.Namespaces() {
			depth, capacity := n.QueueDepth()
			e := nsReady{
				Name: n.spec.Name, Kind: string(n.spec.Kind), Ready: true,
				QueueDepth: depth, QueueCap: capacity, T: int64(n.T()),
			}
			if err := n.Err(); err != nil {
				e.Ready, e.Error = false, err.Error()
				rep.Ready = false
			}
			rep.Namespaces = append(rep.Namespaces, e)
		}
		code := http.StatusOK
		if !rep.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, rep)
	}))

	list := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		statuses := []nsStatus{}
		for _, n := range s.Namespaces() {
			statuses = append(statuses, n.status())
		}
		writeJSON(w, http.StatusOK, statuses)
	})
	mux.Handle("GET /namespacesz", list)
	mux.Handle("GET /v1/namespaces", list)

	mux.Handle("POST /v1/namespaces", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: parsing spec: %w", err))
			return
		}
		n, err := s.Create(spec)
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusCreated, n.status())
		}
	}))

	mux.Handle("GET /v1/namespaces/{name}", s.withNS(func(w http.ResponseWriter, r *http.Request, n *Namespace) {
		writeJSON(w, http.StatusOK, n.status())
	}))

	mux.Handle("DELETE /v1/namespaces/{name}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := s.Delete(r.Context(), r.PathValue("name")); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))

	mux.Handle("POST /v1/namespaces/{name}/blocks", s.withNS(s.handleIngest))
	mux.Handle("POST /v1/namespaces/{name}/flush", s.withNS(func(w http.ResponseWriter, r *http.Request, n *Namespace) {
		checkpoint := r.URL.Query().Get("checkpoint") == "1"
		err := n.Flush(r.Context(), checkpoint)
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeJSON(w, http.StatusOK, n.status())
		}
	}))

	mux.Handle("GET /v1/namespaces/{name}/itemsets", s.withNS(func(w http.ResponseWriter, r *http.Request, n *Namespace) {
		m, ok := queryModel[itemsetQueries](w, n, "itemset model")
		if !ok {
			return
		}
		sets := m.FrequentItemsets()
		sort.Slice(sets, func(i, j int) bool {
			if sets[i].Count != sets[j].Count {
				return sets[i].Count > sets[j].Count
			}
			return sets[i].Itemset.Key() < sets[j].Itemset.Key()
		})
		if top, err := strconv.Atoi(r.URL.Query().Get("top")); err == nil && top >= 0 && top < len(sets) {
			sets = sets[:top]
		}
		writeJSON(w, http.StatusOK, toItemsetJSON(sets))
	}))

	mux.Handle("GET /v1/namespaces/{name}/border", s.withNS(func(w http.ResponseWriter, r *http.Request, n *Namespace) {
		if m, ok := queryModel[itemsetQueries](w, n, "itemset model"); ok {
			writeJSON(w, http.StatusOK, toItemsetJSON(m.BorderItemsets()))
		}
	}))

	mux.Handle("GET /v1/namespaces/{name}/rules", s.withNS(func(w http.ResponseWriter, r *http.Request, n *Namespace) {
		minconf := 0.5
		if v, err := strconv.ParseFloat(r.URL.Query().Get("minconf"), 64); err == nil {
			if !(v > 0 && v <= 1) {
				writeError(w, http.StatusBadRequest, fmt.Errorf("serve: minconf %v outside (0, 1]", v))
				return
			}
			minconf = v
		}
		m, ok := queryModel[itemsetQueries](w, n, "itemset model")
		if !ok {
			return
		}
		rules, err := m.Rules(minconf)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out := make([]ruleJSON, len(rules))
		for i, rl := range rules {
			out[i] = ruleJSON{
				Antecedent: toInt32s(rl.Antecedent),
				Consequent: toInt32s(rl.Consequent),
				Support:    rl.Support,
				Confidence: rl.Confidence,
				Lift:       rl.Lift,
			}
		}
		writeJSON(w, http.StatusOK, out)
	}))

	mux.Handle("GET /v1/namespaces/{name}/clusters", s.withNS(func(w http.ResponseWriter, r *http.Request, n *Namespace) {
		m, ok := queryModel[*demon.ClusterMiner](w, n, "cluster model")
		if !ok {
			return
		}
		cs, err := m.Clusters()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out := make([]clusterJSON, len(cs))
		for i, c := range cs {
			out[i] = clusterJSON{Centroid: c.Centroid, N: c.N, Radius: c.Radius}
		}
		writeJSON(w, http.StatusOK, out)
	}))

	mux.Handle("GET /v1/namespaces/{name}/patterns", s.withNS(func(w http.ResponseWriter, r *http.Request, n *Namespace) {
		m, ok := queryModel[*demon.Monitor](w, n, "monitor")
		if !ok {
			return
		}
		type report struct {
			T        demon.BlockID     `json:"t"`
			Patterns [][]demon.BlockID `json:"patterns"`
			Score    *float64          `json:"score,omitempty"`
			PValue   *float64          `json:"p_value,omitempty"`
			Similar  *bool             `json:"similar,omitempty"`
		}
		rep := report{T: m.T(), Patterns: m.Patterns()}
		q := r.URL.Query()
		if q.Has("a") && q.Has("b") {
			a, errA := strconv.Atoi(q.Get("a"))
			b, errB := strconv.Atoi(q.Get("b"))
			if errA != nil || errB != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("serve: a and b must be block identifiers"))
				return
			}
			score, pv, ok := m.Similarity(demon.BlockID(a), demon.BlockID(b))
			if !ok {
				writeError(w, http.StatusNotFound, fmt.Errorf("serve: no cached deviation for blocks %d and %d", a, b))
				return
			}
			similar := pv >= n.spec.Alpha
			rep.Score, rep.PValue, rep.Similar = &score, &pv, &similar
		}
		writeJSON(w, http.StatusOK, rep)
	}))

	return s.traceMiddleware(mux)
}

// itemsetQueries is the read surface the itemset and window kinds offer.
type itemsetQueries interface {
	FrequentItemsets() []demon.ItemsetSupport
	BorderItemsets() []demon.ItemsetSupport
	Rules(minConf float64) ([]demon.Rule, error)
}

// queryModel returns the namespace's current model as the query surface Q,
// answering 400 when its kind does not offer one.
func queryModel[Q any](w http.ResponseWriter, n *Namespace, what string) (Q, bool) {
	q, ok := n.m().miner.(Q)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: namespace %s (%s) has no %s", n.spec.Name, n.spec.Kind, what))
	}
	return q, ok
}

// statusWriter captures the response status for request logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceMiddleware starts a request trace — honoring an incoming
// X-Demon-Trace-Id and always echoing the trace ID on traced responses, so
// traces cross process boundaries — opens the HTTP handler span, and logs
// the request. Requests without a client ID go through the tracer's
// sampler; a request with one is always traced.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.Default().Tracer().StartTrace(r.Header.Get(obs.TraceIDHeader), r.Method+" "+r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if tr == nil {
			next.ServeHTTP(sw, r)
			logRequest(r.Context(), r, sw.status)
			return
		}
		w.Header().Set(obs.TraceIDHeader, tr.ID())
		span := obs.Default().Timer("serve.http.request.ns").StartSpan(obs.SpanContextFrom(obs.ContextWithTrace(r.Context(), tr)))
		ctx := span.Ctx(r.Context())
		next.ServeHTTP(sw, r.WithContext(ctx))
		span.End()
		logRequest(ctx, r, sw.status)
	})
}

// logRequest emits one structured line per request: debug for successes so
// the default info level stays quiet under load, warn for server errors.
func logRequest(ctx context.Context, r *http.Request, status int) {
	l := log.Default()
	if status >= http.StatusInternalServerError {
		l.WarnCtx(ctx, "request failed", "method", r.Method, "path", r.URL.Path, "status", status)
		return
	}
	l.DebugCtx(ctx, "request", "method", r.Method, "path", r.URL.Path, "status", status)
}

// retryAfterJitter renders base seconds plus up to base extra, so
// synchronized clients hitting backpressure spread their retries instead of
// stampeding back in lockstep.
func retryAfterJitter(base int) string {
	return strconv.Itoa(base + rand.IntN(base+1))
}

func toInt32s(x demon.Itemset) []int32 {
	out := make([]int32, len(x))
	for i, it := range x {
		out[i] = int32(it)
	}
	return out
}

// withNS resolves the {name} path value to a namespace.
func (s *Server) withNS(h func(http.ResponseWriter, *http.Request, *Namespace)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, ok := s.Namespace(r.PathValue("name"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: namespace %s not found", r.PathValue("name")))
			return
		}
		h(w, r, n)
	})
}

// handleIngest streams NDJSON blocks into the namespace's queue. It stops
// at the first block the queue cannot take and answers 429 (full) or 503
// (draining) with the accepted count and a Retry-After hint; the client
// resumes the stream from there. Accepted blocks are applied even if the
// server drains before they leave the queue.
//
// Hardening: the request body is capped (413 with reason=body), each NDJSON
// line is capped (413 with reason=line), duplicate sequenced blocks are
// acknowledged as no-ops (a request of only duplicates answers 200 with
// "duplicate": true), and sequence gaps or a seq-less block on a sequenced
// stream answer 409 with the expected NextSeq.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, n *Namespace) {
	body := r.Body
	if maxBody := s.cfg.maxIngestBytes(); maxBody > 0 {
		body = http.MaxBytesReader(w, body, maxBody)
	}
	dec := blockio.NewLineDecoder(body, s.cfg.maxLineBytes())
	res := ingestResult{}
	respond := func(code int) {
		res.Enqueued, _ = n.QueueDepth()
		accepted, _, durable := n.Seq()
		if accepted > 0 {
			res.NextSeq = accepted + 1
			res.DurableSeq = durable
		}
		writeJSON(w, code, res)
	}
	for {
		b, err := dec.Next()
		if err == io.EOF {
			if res.Accepted == 0 && res.Duplicates > 0 {
				// Every block was already accepted: the retry of an
				// ambiguous failure. Idempotent success, nothing enqueued.
				res.Duplicate = true
				respond(http.StatusOK)
				return
			}
			respond(http.StatusAccepted)
			return
		}
		if err != nil {
			res.Error = err.Error()
			var tooLarge *http.MaxBytesError
			switch {
			case errors.As(err, &tooLarge):
				obs.Default().Counter("serve.ingest.rejected|reason=body").Inc()
				respond(http.StatusRequestEntityTooLarge)
			case errors.Is(err, blockio.ErrLineTooLong):
				obs.Default().Counter("serve.ingest.rejected|reason=line").Inc()
				respond(http.StatusRequestEntityTooLarge)
			default:
				obs.Default().Counter("serve.ingest.rejected|reason=decode").Inc()
				respond(http.StatusBadRequest)
			}
			return
		}
		switch err := n.EnqueueCtx(r.Context(), b); {
		case err == nil:
			res.Accepted++
		case errors.Is(err, ErrDuplicate):
			res.Duplicates++
		case errors.Is(err, ErrQueueFull):
			res.Error = err.Error()
			w.Header().Set("Retry-After", retryAfterJitter(1))
			respond(http.StatusTooManyRequests)
			return
		case errors.Is(err, ErrDraining):
			res.Error = err.Error()
			w.Header().Set("Retry-After", retryAfterJitter(5))
			respond(http.StatusServiceUnavailable)
			return
		case errors.Is(err, ErrWrongKind), errors.Is(err, ErrEmptyBlock):
			res.Error = err.Error()
			respond(http.StatusBadRequest)
			return
		case errors.Is(err, ErrSeqGap), errors.Is(err, ErrUnsequenced):
			res.Error = err.Error()
			obs.Default().Counter("serve.ingest.rejected|reason=seq").Inc()
			respond(http.StatusConflict)
			return
		default:
			res.Error = err.Error()
			respond(http.StatusConflict) // sticky namespace failure
			return
		}
	}
}
