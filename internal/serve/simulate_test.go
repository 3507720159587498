package serve

// The served simulation (DESIGN §10): one seeded driver for exactly-once
// ingest through the real chain, client.Feeder → chaos.Proxy →
// Server.Handler, over in-memory connections. Each namespace store opens
// through the openStore hook over a fresh base handle with a
// diskio.FaultStore on it, beneath the checksum frame. One PRNG per seed
// draws the workload, the events and the store faults, each at an operation
// index of the schedule: a crash with a torn write, after which the driver
// restarts the server over the surviving bytes, or one failed operation,
// which the auto-reopen loop recovers from. The invariants are checked after
// every event (check), after each restart (start) and at the end (sequenced,
// run). A schedule is the subtest <family>/<backend>/seed=<n>; a failure
// prints its replay.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/chaos"
	"github.com/demon-mining/demon/internal/client"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/diskio/kvfile"
	"github.com/demon-mining/demon/internal/itemset"
)

// Seeds below simRandom run a fixed workload, which the crash family crashes
// at operation k = seed; from simRandom on, a seed draws a schedule with, by
// (seed − simRandom) mod 3, no store fault, one, or two to three.
const simRandom = 1000

// pipeNet is an in-memory listener: Dial hands Accept one end of a net.Pipe.
type pipeNet struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	live  sync.WaitGroup // accepted connections not yet closed
}

// pipeConn is an accepted connection, which leaves live when it closes.
type pipeConn struct {
	net.Conn
	once sync.Once
	done func()
}

func (c *pipeConn) Close() error {
	c.once.Do(c.done)
	return c.Conn.Close()
}

func newPipeNet() *pipeNet { return &pipeNet{conns: make(chan net.Conn), done: make(chan struct{})} }

func (p *pipeNet) Addr() net.Addr { return &net.UnixAddr{Name: "sim", Net: "pipe"} }

func (p *pipeNet) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

func (p *pipeNet) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		p.live.Add(1)
		return &pipeConn{Conn: c, done: p.live.Done}, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeNet) Dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case p.conns <- s:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

// simRow is a backend row: the store a namespace spec names, and its cache.
type simRow struct {
	name, store string
	cache       int64
}

var simRows = []simRow{{"file", "file", 0}, {"kvfile", "kvfile", 0}, {"kvfile+cache", "kvfile", 64 << 10}}

// simFamilies: crash sweeps a sequenced itemset workload, the four kinds
// draw schedules, reopen kills a kvfile handle mid-stream, unsequenced
// feeds two namespaces by plain POSTs.
var simFamilies = []struct {
	name string
	kind Kind
	rows []simRow
}{{"crash", KindItemset, simRows}, {"itemset", KindItemset, simRows}, {"window", KindWindow, simRows},
	{"cluster", KindCluster, simRows}, {"monitor", KindMonitor, simRows},
	{"reopen", KindItemset, simRows[1:2]}, {"unsequenced", KindItemset, simRows[:1]}}

// simEvent: 's' Send, 'f' Flush, 'c' Checkpoint until every block sent is
// durable, 'q' Query, 't' arm tox for the next connection, 'r' drain and
// restart, 'b' Send and Flush through a reset that tears the request, so
// that the restart runs in the feeder's backoff, 'h' kill the store handle k
// operations on, 'n' drop the feeder with whatever it buffered (a demon-feed
// exit) and re-send every block sent so far, from the first, through a fresh
// one, which syncs first if sync is set and sends blind if not; a blind one's
// tox, if set, tears its POSTs but not its status reads until the feeder
// backs off. A store fault is 'x', a crash with a torn write, or 'e', one
// failed operation, at the schedule's k-th store operation.
type simEvent struct {
	op   byte
	tox  chaos.Toxics
	k    int
	sync bool
}

// simSpec is a namespace, its workload and its history.
type simSpec struct {
	ns      Spec
	blocks  []blockio.Block
	batch   int
	history []simEvent
}

// nsSpec checkpoints a window every block: its retention lags the
// checkpoint, so that the store would otherwise depend on where drains fell.
func nsSpec(kind Kind, row simRow, every int) Spec {
	sp := Spec{Name: "ns", Kind: kind, Store: row.store, CacheBytes: row.cache, QueueDepth: 1, CheckpointEvery: every}
	switch kind {
	case KindItemset, KindWindow:
		sp.MinSupport, sp.Strategy = 0.2, "ecut"
		if kind == KindWindow {
			sp.WindowSize, sp.CheckpointEvery = 3, 1 // Workers 0 is serial: operation indices repeat
		}
	case KindCluster:
		sp.K = 2
	case KindMonitor:
		sp.MinSupport, sp.Alpha, sp.CheckpointEvery = 0.3, 0.05, 0
	}
	return sp
}

// simBlock draws short transactions over eight items, or points round two
// centers.
func simBlock(kind Kind, rng *rand.Rand) blockio.Block {
	n := 6 + rng.Intn(8)
	if kind == KindCluster {
		pts := make([]demon.Point, n)
		for i := range pts {
			c := float64(rng.Intn(2) * 8)
			pts[i] = demon.Point{c + rng.Float64(), c - rng.Float64()}
		}
		return blockio.PointBlock(pts)
	}
	rows := make([][]itemset.Item, n)
	for i := range rows {
		base := itemset.Item(rng.Intn(4))
		rows[i] = []itemset.Item{base, base + 4 + itemset.Item(rng.Intn(2))}
	}
	return blockio.TxBlock(rows)
}

// fixedSpec is the crash family's workload (two blocks, a checkpoint, two
// more, a checkpoint) or the reopen family's: a reset tears the fourth
// block's request, but not the status read after it, while the third is
// applied and not durable; then the handle dies at its seed-th operation
// from there, in the fifth block.
func fixedSpec(family string, row simRow, seed int64) *simSpec {
	sp, h := &simSpec{ns: nsSpec(KindItemset, row, 0), batch: 1}, "sscssc"
	if family == "reopen" {
		h = "sscstshsssc"
	}
	for _, op := range []byte(h) {
		sp.history = append(sp.history, simEvent{op: op, k: int(seed), tox: chaos.Toxics{ResetAfter: 200}})
		if op == 's' {
			sp.blocks = append(sp.blocks, blockio.TxBlock(txRows(8, len(sp.blocks))))
		}
	}
	return sp
}

func drawSpec(kind Kind, row simRow, rng *rand.Rand) *simSpec {
	sp := &simSpec{ns: nsSpec(kind, row, rng.Intn(4)), batch: 1 + rng.Intn(4)}
	for n := 14 + rng.Intn(12); len(sp.history) < n; {
		ev := simEvent{op: 's'}
		if p := rng.Float64(); p < 0.33 {
			ev.op = "ffccqqrbn"[int(p/0.33*9)]
			if ev.op == 'n' {
				switch rng.Intn(3) {
				case 0:
					ev.sync = true
				case 1: // a reset past a status GET's request (~120 bytes), in a POST's headers
					ev.tox = chaos.Toxics{ResetAfter: 160}
				}
			}
		} else if p < 0.5 {
			off := int64(16 + rng.Intn(400)) // in the request line, a header or the body
			ev.op, ev.tox = 't', []chaos.Toxics{{ResetAfter: off}, {CloseAfter: off},
				{StallAfter: off, StallFor: time.Millisecond}, {Latency: time.Millisecond}}[rng.Intn(4)]
		}
		if ev.op == 's' || ev.op == 'b' {
			sp.blocks = append(sp.blocks, simBlock(kind, rng))
		}
		sp.history = append(sp.history, ev)
	}
	sp.history = append(sp.history, simEvent{op: 'c'})
	return sp
}

// simStores maps a schedule's root directory to its run.
var simStores sync.Map

// This package's tests open a schedule's stores through its run and every
// other store as in production.
func init() {
	openStore = func(url string) (demon.Store, error) {
		var r *simRun
		simStores.Range(func(root, v any) bool {
			if strings.Contains(url, root.(string)+string(filepath.Separator)) {
				r = v.(*simRun)
			}
			return r == nil
		})
		if r == nil {
			return demon.OpenStore(url)
		}
		return r.openStore(url)
	}
}

var simIDs atomic.Int64

// simRun is one schedule. A run without faults, toxics or restarts is the
// twin that the others must end equal to.
type simRun struct {
	t        *testing.T
	seed     int64
	sp       *simSpec
	twin     *simRun
	id, root string // the run's goroutine label; its server's root
	srv      *Server
	hs       *http.Server
	served   chan struct{}
	front    *pipeNet // the proxy's listener
	back     *pipeNet // the server's
	proxy    *chaos.Proxy
	hc       *http.Client
	feed     *client.Feeder
	tox      chaos.Toxics // armed for the next connection
	sent     int          // blocks sent
	armed    bool         // a restart waits for the feeder's next backoff
	reopens  int64        // as the last status read them
	lastT    demon.BlockID
	durable  uint64 // the highest durable mark seen
	stale    uint64 // one past the epoch the dead handle's generation admitted in
	dump     map[string]string

	mu            sync.Mutex  // guards the rest: the hook runs on reopen goroutines too
	faults        []simEvent  // pending, by k
	down          bool        // a crash has the process down
	base          demon.Store // beneath the current handle's FaultStore
	nops          int         // the store operations so far, a dead handle's not counted
	ops, log      []string    // the store-op log; events, faults, restarts and facts covered
	fires, evFire int         // the faults that fired, all and before the event
}

func (r *simRun) logf(f string, a ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, fmt.Sprintf(f, a...))
}

// openStore stacks a namespace store over a fresh base handle whose
// FaultStore fires the pending fault at its operation. A crash or a dead
// handle fails every operation after it, and only a crash's Put is torn.
// While a crash has the process down it opens nothing.
func (r *simRun) openStore(url string) (demon.Store, error) {
	scheme, path, opts, _ := diskio.ParseStoreURL(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return nil, errors.New("sim: the process is down")
	}
	base, err := demon.Store(nil), os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil && scheme == "kvfile" {
		base, err = kvfile.Open(path, kvfile.Options{})
	} else if err == nil {
		base, err = diskio.NewFileStore(path)
	}
	if err != nil {
		return nil, err
	}
	fs, dead := diskio.NewFaultStore(base), false
	r.base, r.ops = base, append(r.ops, "open")
	fs.FailOp = func(op diskio.Op, key string) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		if dead {
			fs.TornWrite = false
			return true
		}
		r.nops, r.ops = r.nops+1, append(r.ops, string(op)+" "+key)
		if len(r.faults) == 0 || r.faults[0].k >= r.nops {
			return false
		}
		f := r.faults[0]
		r.faults, r.fires = r.faults[1:], r.fires+1
		r.log = append(r.log, fmt.Sprintf("fault %c at op %d, %s %s; cover fault %c", f.op, r.nops-1, op, key, f.op))
		fs.TornWrite, dead, r.down = f.op == 'x', f.op != 'e', r.down || f.op == 'x'
		return true
	}
	s := demon.Store(diskio.NewChecksumStore(fs))
	if n, err := diskio.ParseSize(opts["cache"]); err == nil && n > 0 {
		s = diskio.NewCacheStore(s, n)
	}
	return s, nil
}

// faulted reports whether a store fault fired during the event, which alone
// may explain a store's failure, and whether the process is down.
func (r *simRun) faulted() (explained, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fires > r.evFire, r.down
}

func (r *simRun) explain(err error) {
	if explained, _ := r.faulted(); !explained {
		r.t.Fatalf("%v, and no store fault fired", err)
	}
}

func (r *simRun) ns(name string) *Namespace {
	n, _ := r.srv.Namespace(name)
	return n
}

// run runs the schedule; then no goroutine it started may outlive it
// (invariant 6), which the run's pprof label tells.
func (r *simRun) run() *simRun {
	t := r.t
	r.id, r.root, r.front = strconv.FormatInt(simIDs.Add(1), 10), t.TempDir(), newPipeNet()
	defer pprof.SetGoroutineLabels(context.Background())
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("sim", r.id)))
	simStores.Store(r.root, r)
	defer simStores.Delete(r.root)
	r.hc = &http.Client{Transport: &http.Transport{DisableKeepAlives: true,
		DialContext: func(context.Context, string, string) (net.Conn, error) { return r.front.Dial() }}}
	var err error
	if r.srv, err = New(Config{Root: r.root, ReopenBackoff: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	r.serve()
	if r.sp.ns.Name == "" {
		r.unsequenced()
	} else {
		r.sequenced()
	}
	r.proxy.Close()
	r.hc.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); r.goroutines() > 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the schedule", r.goroutines()-1)
		}
	}
	return r
}

// sequenced feeds one namespace through a Feeder, then holds it to
// invariant 5: every mark at the block count, the store equal to the twin's.
func (r *simRun) sequenced() {
	t, ctx := r.t, context.Background()
	if _, err := r.srv.Create(r.sp.ns); err != nil {
		r.explain(err)
		r.restart()
	}
	r.newFeeder()
	r.check()
	for _, ev := range r.sp.history {
		r.do(ev)
	}
	if r.stale > 0 { // what the dead handle's generation admitted must not apply
		r.ns("ns").queue <- queued{block: r.sp.blocks[0], epoch: r.stale - 1}
	}
	for r.checkpoint(); ; r.checkpoint() {
		err := r.srv.Drain(ctx)
		if err == nil {
			break
		}
		r.explain(err)
		r.halt()
		r.start()
	}
	n, blocks := r.ns("ns"), uint64(len(r.sp.blocks))
	if acc, app, dur := n.Seq(); acc != blocks || app != blocks || dur != blocks || uint64(n.T()) != blocks {
		t.Fatalf("the schedule ended at T=%d with seq marks (%d, %d, %d), want all %d", n.T(), acc, app, dur, blocks)
	}
	var err error
	r.mu.Lock()
	r.dump, err = diskio.Dump(r.base)
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	r.halt()
	if r.twin != nil {
		if d := diskio.DiffDumps(r.dump, r.twin.dump); d != "" {
			t.Fatalf("the store diverges from the fault-free twin's:\n%s", d)
		}
	}
}

// newFeeder replaces the feeder with a fresh one, over the schedule's
// transport and backoff.
func (r *simRun) newFeeder() {
	var err error
	r.feed, err = client.New(client.Config{BaseURL: "http://sim", Namespace: "ns", HTTPClient: &http.Client{Transport: r},
		BatchSize: r.sp.batch, MaxAttempts: 64, RequestTimeout: 10 * time.Second,
		Rand: func() float64 { return 1 }, Sleep: r.backoff})
	if err != nil {
		r.t.Fatal(err)
	}
}

// rerun is demon-feed run again over the input so far: a fresh feeder,
// synced first (again while a toxic or a crash fails the status read, as an
// operator would re-run it) or blind, re-sends every block from the first.
func (r *simRun) rerun(sync bool) error {
	ctx, how := context.Background(), "blind"
	if sync {
		how = "synced"
	}
	r.newFeeder()
	for try := 0; sync; try++ {
		err := r.feed.Sync(ctx)
		if err == nil {
			break
		}
		if try > 50 {
			return err
		}
		r.proxy.Set(chaos.Toxics{})
		if _, down := r.faulted(); down {
			r.restart()
		}
	}
	r.logf("cover rerun %s; cover %s rerun", how, r.sp.ns.Kind)
	held, _, _ := r.ns("ns").Seq()
	for i, b := range r.sp.blocks[:r.sent] {
		if err := r.feed.Send(ctx, b); err != nil {
			return err
		}
		// The first POST failed, and the resync moved the send position
		// past every block assigned so far, with no retry.
		if st := r.feed.Stats(); !sync && i+1 == r.sp.batch && st.Resyncs == 1 && st.Retries == 0 && held >= r.feed.Seq() {
			r.logf("cover blind rerun resynced past its first POST")
		}
	}
	return nil
}

// do runs one event, restarts a crashed process or waits out a reopen, and
// checks the marks. The twin runs no toxic, dead handle or restart.
func (r *simRun) do(ev simEvent) {
	ctx, noisy := context.Background(), r.twin != nil
	r.logf("%c", ev.op)
	r.mu.Lock()
	r.evFire = r.fires
	r.mu.Unlock()
	if ev.op == 't' {
		if noisy {
			r.tox = ev.tox
		}
		return
	}
	acc := r.proxy.Accepted()
	resets, closes, stalls := r.proxy.Injected()
	switch {
	case ev.op == 'b' && noisy:
		r.tox, r.armed = chaos.Toxics{ResetAfter: 8}, true
	case ev.op == 'n' && noisy && ev.tox != (chaos.Toxics{}):
		r.tox = ev.tox
	}
	r.proxy.Set(r.tox)
	var err error
	switch ev.op {
	case 'c':
		r.checkpoint()
	case 'q':
		r.query()
	case 'f':
		err = r.feed.Flush(ctx)
	case 'n':
		err = r.rerun(ev.sync)
	case 'r':
		if noisy {
			r.restart()
		}
	case 'h':
		if n := r.ns("ns"); noisy {
			n.mu.Lock()
			r.stale = n.epoch + 1
			n.mu.Unlock()
			r.mu.Lock()
			r.faults = append([]simEvent{{op: 'h', k: r.nops + ev.k}}, r.faults...)
			r.mu.Unlock()
		}
	case 's', 'b':
		if r.sent++; ev.op == 'b' && noisy {
			defer r.logf("cover restart in backoff")
		}
		if err = r.feed.Send(ctx, r.sp.blocks[r.sent-1]); err == nil && ev.op == 'b' {
			err = r.feed.Flush(ctx)
		}
	}
	if err != nil || r.armed {
		r.t.Fatalf("%c: %v (a restart still waits for a backoff: %v)", ev.op, err, r.armed)
	}
	r.proxy.Set(chaos.Toxics{})
	if r.proxy.Accepted() > acc { // the toxic met its connection
		r2, c2, s2 := r.proxy.Injected()
		for kind, fired := range map[string]bool{"reset": r2 > resets, "close": c2 > closes, "stall": s2 > stalls,
			"latency": r.tox.Latency > 0} {
			if fired {
				r.logf("cover toxic %s; cover %c through a toxic; cover %s through a toxic", kind, ev.op, r.sp.ns.Kind)
			}
		}
		r.tox = chaos.Toxics{}
	}
	// The reopen loop recovers from a failed operation before the next event.
	n := r.ns("ns")
	for i, down := 0, false; n.Err() != nil && !down; _, down = r.faulted() {
		if i++; i > 5000 {
			r.t.Fatalf("the namespace did not reopen: %v", n.Err())
		}
		time.Sleep(time.Millisecond)
	}
	if _, down := r.faulted(); down {
		r.restart()
	}
	r.check()
}

// RoundTrip is the feeder's transport. Before the feeder sees a response it
// waits for the server to close every connection (each handler has returned)
// and for the worker to apply what they enqueued, so that a fault fires
// before the feeder moves on: a seed is one interleaving.
func (r *simRun) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.hc.Transport.RoundTrip(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	r.back.live.Wait()
	_ = r.ns("ns").Flush(req.Context(), false)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// backoff is the feeder's sleep: it heals the link, runs an armed restart,
// restarts a crashed process, and lets the worker and the reopen loop run.
func (r *simRun) backoff(ctx context.Context, _ time.Duration) error {
	r.proxy.Set(chaos.Toxics{})
	if _, down := r.faulted(); r.armed || down {
		r.armed = false
		r.restart()
	}
	time.Sleep(time.Millisecond)
	return ctx.Err()
}

// checkpoint checkpoints until the feeder's Checkpoint returns nil, which
// it may do only once every block sent is durable, even if a rollback in
// between (a crash, a reopen) took some of them out of the model.
func (r *simRun) checkpoint() {
	for try := 0; ; try++ {
		err := r.feed.Checkpoint(context.Background())
		_, _, dur := r.ns("ns").Seq()
		explained, down := r.faulted()
		switch {
		case err == nil && dur != uint64(r.sent):
			r.t.Fatalf("checkpoint returned at %d blocks sent, %d durable", r.sent, dur)
		case err == nil:
			return
		case try > 50 || r.tox == (chaos.Toxics{}) && !explained:
			r.t.Fatalf("checkpoint at %d blocks sent, %d durable: %v", r.sent, dur, err)
		case down:
			r.restart()
		}
		r.proxy.Set(chaos.Toxics{})
		time.Sleep(time.Millisecond)
	}
}

// query asks the kind's query and the status through the proxy: invariant
// 3, every 200 decodes, and T does not go back within a model generation.
func (r *simRun) query() {
	var st nsStatus
	path := map[Kind]string{KindItemset: "itemsets?top=5", KindWindow: "rules?minconf=0.5",
		KindCluster: "clusters", KindMonitor: "patterns"}[r.sp.ns.Kind]
	for _, err := range []error{r.get("/v1/namespaces/ns/"+path, new(any)), r.get("/v1/namespaces/ns", &st)} {
		if err != nil && r.tox == (chaos.Toxics{}) {
			r.t.Fatal(err)
		}
	}
	if st.Spec.Name != "" && st.Reopens == r.reopens && st.T < r.lastT {
		r.t.Fatalf("T went back from %d to %d", r.lastT, st.T)
	} else if st.Spec.Name != "" {
		r.reopens, r.lastT = st.Reopens, st.T
	}
}

// get decodes a GET's 200 into v; a 200 that does not decode fails the run.
func (r *simRun) get(path string, v any) error {
	resp, err := r.hc.Get("http://sim" + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %v", path, resp.StatusCode, err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		r.t.Errorf("GET %s: a 200 that does not decode: %v", path, err)
	}
	return nil
}

// check holds each namespace, quiet between events, to invariants 1,
// durable ≤ applied ≤ accepted, and 2, the durable mark never falls (across
// a restart, too).
func (r *simRun) check() {
	for _, n := range r.srv.Namespaces() {
		if acc, app, dur := n.Seq(); dur > app || app > acc || dur < r.durable {
			r.t.Fatalf("namespace %s: seq marks durable %d (was %d), applied %d, accepted %d",
				n.spec.Name, dur, r.durable, app, acc)
		} else {
			r.durable = dur
		}
	}
}

// serve puts the server behind a fresh listener and points the proxy at it;
// T may start again.
func (r *simRun) serve() {
	back := newPipeNet()
	r.hs, r.served, r.back, r.lastT = &http.Server{Handler: r.srv.Handler()}, make(chan struct{}), back, 0
	go func(hs *http.Server, done chan struct{}) { defer close(done); _ = hs.Serve(back) }(r.hs, r.served)
	if r.proxy == nil {
		r.proxy = chaos.New(r.front, back.Dial)
	} else {
		r.proxy.SetUpstream(back.Dial)
	}
}

// restart drains the server, which only a fault may fail, and starts a new
// one.
func (r *simRun) restart() {
	if err := r.srv.Drain(context.Background()); err != nil {
		r.explain(err)
	}
	r.logf("restart")
	r.halt()
	r.start()
}

// halt shuts the server's listener and closes its stores.
func (r *simRun) halt() {
	_ = r.hs.Shutdown(context.Background())
	<-r.served
	for _, n := range r.srv.Namespaces() {
		_ = demon.CloseStore(n.Store())
	}
}

// start opens a new server over the surviving bytes, again while a fault
// fails the recovery, and checks invariant 4 before it serves a request
// (the unsequenced family's feeders post through the restart): nothing is
// left under staging/, and a scrub quarantines nothing.
func (r *simRun) start() {
	for {
		r.mu.Lock()
		r.down = false
		r.mu.Unlock()
		s, err := New(Config{Root: r.root, ReopenBackoff: time.Millisecond})
		if err == nil {
			r.srv = s
			break
		}
		r.explain(err)
		r.logf("cover fault in recovery")
	}
	for _, n := range r.srv.Namespaces() {
		store := n.Store()
		if n.spec.Name == "ns" { // beneath the FaultStore, whose operations count
			r.mu.Lock()
			store = diskio.NewChecksumStore(r.base)
			r.mu.Unlock()
		}
		keys, err := store.Keys(diskio.StagingPrefix)
		rep, serr := diskio.ScrubChain(store, "")
		if err != nil || serr != nil || len(keys) > 0 || len(rep.Quarantined) > 0 {
			r.t.Fatalf("after a restart: %v under %s, scrub %+v (%v, %v)", keys, diskio.StagingPrefix, rep, err, serr)
		}
	}
	r.serve()
	r.check()
}

// goroutines counts the live goroutines labelled with the run's id.
func (r *simRun) goroutines() (n int) {
	var b strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if strings.Contains(rec, `"sim":"`+r.id+`"`) {
			c, _ := strconv.Atoi(rec[:strings.IndexByte(rec, ' ')])
			n += c
		}
	}
	return n
}

// unsequenced feeds an itemset and a cluster namespace concurrently, a
// plain POST a block, while a goroutine queries both across a drain and
// restart. Each store must end equal to a plain facade miner's.
func (r *simRun) unsequenced() {
	t, rng := r.t, rand.New(rand.NewSource(r.seed))
	specs := []Spec{{Name: "tx", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut", QueueDepth: 4},
		{Name: "pts", Kind: KindCluster, K: 2, QueueDepth: 4}}
	var feeders, queries, half sync.WaitGroup
	stop, blocks := make(chan struct{}), map[string][]blockio.Block{}
	for _, sp := range specs {
		if _, err := r.srv.Create(sp); err != nil {
			t.Fatal(err)
		}
		for range 10 {
			blocks[sp.Name] = append(blocks[sp.Name], simBlock(sp.Kind, rng))
		}
		feeders.Add(1)
		half.Add(1)
		go func(ns string, blocks []blockio.Block) {
			defer feeders.Done()
			for i, b := range blocks {
				if i == len(blocks)/2 {
					half.Done()
				}
				r.post(ns, b)
			}
		}(sp.Name, blocks[sp.Name])
	}
	queries.Add(1)
	go func() {
		defer queries.Done()
		lastT, ok := map[string]demon.BlockID{}, 0
		for ; ; time.Sleep(time.Millisecond) {
			select {
			case <-stop:
				if ok == 0 {
					t.Error("no query succeeded")
				}
				return
			default:
			}
			var sts []nsStatus
			if r.get("/namespacesz", &sts) != nil || r.get("/v1/namespaces/tx/itemsets?top=8", new(any)) != nil ||
				r.get("/v1/namespaces/pts/clusters", new(any)) != nil {
				continue
			}
			for _, st := range sts {
				if st.T < lastT[st.Spec.Name] {
					t.Errorf("namespace %s: T went back from %d to %d", st.Spec.Name, lastT[st.Spec.Name], st.T)
				}
				lastT[st.Spec.Name] = st.T
			}
			ok++
		}
	}()
	half.Wait()
	r.restart()
	feeders.Wait()
	close(stop)
	queries.Wait()
	if err := r.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		got, err := diskio.Dump(r.ns(sp.Name).Store())
		if err != nil {
			t.Fatal(err)
		}
		if d := diskio.DiffDumps(got, plainMiner(t, sp, blocks[sp.Name])); d != "" {
			t.Errorf("namespace %s diverges from a plain miner's store:\n%s", sp.Name, d)
		}
	}
	r.halt()
}

// post sends one unsequenced block until the server takes it: 429, 503 and
// a refused connection (the restart) mean try again.
func (r *simRun) post(ns string, b blockio.Block) {
	var body bytes.Buffer
	if err := blockio.NewEncoder(&body).Encode(b); err != nil {
		r.t.Error(err)
		return
	}
	for ; ; time.Sleep(time.Millisecond) {
		resp, err := r.hc.Post("http://sim/v1/namespaces/"+ns+"/blocks", "application/x-ndjson", bytes.NewReader(body.Bytes()))
		if err != nil {
			continue
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted: // a request of one block: that block
			return
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			r.t.Errorf("namespace %s: ingest answered %d", ns, resp.StatusCode)
			return
		}
	}
}

// plainMiner runs the facade miner of sp over blocks, outside any server,
// checkpoints, and returns its store.
func plainMiner(t *testing.T, sp Spec, blocks []blockio.Block) map[string]string {
	store, err := demon.OpenStore("file:" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := openModel(store, sp, nil)
	for _, b := range blocks {
		if err == nil {
			err = m.apply(context.Background(), b)
		}
	}
	if err == nil {
		err = m.Checkpoint()
	}
	dump, derr := diskio.Dump(store)
	if err = errors.Join(err, derr); err != nil {
		t.Fatal(err)
	}
	return dump
}

// report prints, once t failed, the command that replays it alone (with sub
// "/^$", only the twin) and the log of *r.
func report(t *testing.T, r **simRun, sub string) {
	t.Cleanup(func() {
		if t.Failed() && *r != nil {
			run := "^" + strings.ReplaceAll(regexp.QuoteMeta(t.Name()), "/", "$/^") + "$" + sub
			t.Logf("replay: go test -run '%s' ./internal/serve/\nlog: %s", run, strings.Join((*r).log, " "))
		}
	})
}

// simSchedule runs the schedule seed draws in a family on a row; twin is the
// row's fault-free run of a fixed workload. A faulted schedule must fire a
// fault.
func simSchedule(t *testing.T, family string, kind Kind, row simRow, seed int64, twin *simRun) *simRun {
	r := &simRun{t: t, seed: seed, twin: twin}
	report(t, &r, "")
	rng := rand.New(rand.NewSource(seed))
	switch {
	case family == "unsequenced":
		r.sp, r.twin = &simSpec{}, nil
	case seed < simRandom:
		if r.sp = fixedSpec(family, row, seed); family == "crash" {
			r.faults = []simEvent{{op: 'x', k: int(seed)}}
		}
	default:
		r.sp, r.twin = drawSpec(kind, row, rng), nil
		twin = r.run()
		r = &simRun{t: t, seed: seed, sp: twin.sp, twin: twin}
		for range []int{0, 1, 2 + rng.Intn(2)}[(seed-simRandom)%3] {
			r.faults = append(r.faults, simEvent{op: "xe"[rng.Intn(2)], k: rng.Intn(twin.nops)})
		}
		slices.SortFunc(r.faults, func(a, b simEvent) int { return a.k - b.k })
	}
	if faulted := len(r.faults) > 0; r.run().fires == 0 && faulted {
		t.Fatal("no store fault of the schedule fired")
	}
	return r
}

// TestSimulate runs every family's schedules: the crash family at every
// operation index of its fault-free run on kvfile and at up to 8 spread over
// it on the other rows, three drawn schedules per kind and row, four dead
// handles on kvfile and the unsequenced pair. A full run must cover each
// toxic, a restart in the feeder's backoff, a checkpoint through a faulty
// link, the window and monitor kinds through one, each store fault, one in
// recovery, and a blind re-run whose torn first POST is resynced past every
// block it has assigned (the server holds more than that POST carried).
func TestSimulate(t *testing.T) {
	var mu sync.Mutex
	var rows, listed, ran int
	seen := map[string]int{}
	for _, fam := range simFamilies {
		for _, row := range fam.rows {
			t.Run(fam.name+"/"+row.name, func(t *testing.T) {
				var twin *simRun
				seeds := []int64{simRandom, simRandom + 1, simRandom + 2}
				switch fam.name {
				case "crash", "reopen":
					twin = &simRun{t: t, sp: fixedSpec(fam.name, row, 0)}
					pending := twin
					report(t, &pending, "/^$")
					ops, step := twin.run().nops, 1
					pending = nil
					if row.name != "kvfile" || testing.Short() {
						step = (ops-1)/8 + 1
					}
					if seeds = []int64{0, 1, 2, 3}; fam.name == "crash" {
						seeds = nil
					}
					for s := 0; s < ops && fam.name == "crash"; s += step {
						seeds = append(seeds, int64(s))
					}
				case "unsequenced":
					seeds = []int64{1}
				}
				rows, listed = rows+1, listed+len(seeds)
				for _, seed := range seeds {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						t.Parallel()
						r := simSchedule(t, fam.name, fam.kind, row, seed, twin)
						handles := 0
						for _, op := range r.ops {
							if op == "open" {
								handles++
							}
						}
						if n := r.ns("ns"); fam.name == "reopen" && (n.reopens.Load() != 1 || handles != 2) {
							t.Fatalf("%d reopens over %d handles, want 1 over a fresh one", n.reopens.Load(), handles)
						}
						mu.Lock()
						defer mu.Unlock()
						for _, l := range r.log {
							for _, fact := range strings.Split(l, "; ") {
								seen[strings.TrimPrefix(fact, "cover ")]++
							}
						}
						ran++
					})
				}
			})
		}
	}
	t.Cleanup(func() {
		for _, fact := range []string{"toxic reset", "toxic close", "toxic stall", "toxic latency",
			"restart in backoff", "c through a toxic", "window through a toxic", "monitor through a toxic",
			"fault x", "fault e", "fault h", "fault in recovery", "rerun synced", "rerun blind",
			"blind rerun resynced past its first POST", "itemset rerun", "window rerun", "cluster rerun", "monitor rerun"} {
			if rows == 17 && ran == listed && !testing.Short() && seen[fact] == 0 {
				t.Errorf("no schedule covered %q: %v", fact, seen)
			}
		}
	})
}

// TestSimulateReplaysItsLog: a seed is its schedule. Two runs of one seed
// leave the same store-op log.
func TestSimulateReplaysItsLog(t *testing.T) {
	a := simSchedule(t, "itemset", KindItemset, simRows[1], simRandom+1, nil)
	b := simSchedule(t, "itemset", KindItemset, simRows[1], simRandom+1, nil)
	if !slices.Equal(a.ops, b.ops) || a.fires == 0 {
		t.Fatalf("one seed, two store-op logs (%d faults fired):\n%v\n%v", a.fires, a.ops, b.ops)
	}
}
