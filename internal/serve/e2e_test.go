package serve

// The end-to-end drain test of ISSUE 6: two concurrent clients stream
// NDJSON blocks into two namespaces of a live server while query hammers
// read the models, the server is torn down mid-stream (the SIGTERM path:
// Drain + listener close), restarted over the same root, and fed the rest
// of the stream. The recovered stores must be byte-identical (SHA-256) to
// stores produced by uninterrupted single-process miner runs over the same
// blocks — the serving layer may add ingestion queues, concurrency and a
// restart, but never a single divergent byte.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/pointgen"
	"github.com/demon-mining/demon/internal/quest"
)

// storeDigest hashes every key and value of a store in sorted key order.
func storeDigest(t *testing.T, store demon.Store) string {
	t.Helper()
	digest, err := diskio.Digest(store)
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// e2e workload sizes: big enough that the drain lands mid-stream, small
// enough for the race detector.
const (
	e2eTxBlocks   = 12
	e2eTxPerBlock = 60
	e2ePtBlocks   = 12
	e2ePtPerBlock = 50
	e2eMinSupport = 0.05
	e2eK          = 3
	e2eWorkers    = 2
)

func e2eTxData(t *testing.T) [][][]itemset.Item {
	t.Helper()
	qc, err := quest.ParseSpec("2M.10L.1I.4pats.3plen")
	if err != nil {
		t.Fatalf("quest spec: %v", err)
	}
	qc.Seed = 7
	gen, err := quest.New(qc)
	if err != nil {
		t.Fatalf("quest: %v", err)
	}
	blocks := make([][][]itemset.Item, e2eTxBlocks)
	for i := range blocks {
		blk := gen.Block(blockseq.ID(i+1), e2eTxPerBlock)
		rows := make([][]itemset.Item, len(blk.Txs))
		for j, tx := range blk.Txs {
			rows[j] = tx.Items
		}
		blocks[i] = rows
	}
	return blocks
}

func e2ePtData(t *testing.T) [][]demon.Point {
	t.Helper()
	pc, err := pointgen.ParseSpec("1M.3c.4d")
	if err != nil {
		t.Fatalf("pointgen spec: %v", err)
	}
	pc.Seed = 7
	gen, err := pointgen.New(pc)
	if err != nil {
		t.Fatalf("pointgen: %v", err)
	}
	blocks := make([][]demon.Point, e2ePtBlocks)
	for i := range blocks {
		blocks[i] = gen.Block(blockseq.ID(i+1), e2ePtPerBlock).Points
	}
	return blocks
}

// referenceDigests runs uninterrupted single-process miners over the same
// blocks — the fault-free golden runs the served stores must match.
func referenceDigests(t *testing.T, txBlocks [][][]itemset.Item, ptBlocks [][]demon.Point) (txDigest, ptDigest string) {
	t.Helper()
	txStore, err := demon.OpenStore("file:" + filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatalf("ref tx store: %v", err)
	}
	tm, err := demon.NewItemsetMiner(demon.ItemsetMinerConfig{
		MinSupport: e2eMinSupport,
		Strategy:   demon.ECUT,
		Store:      txStore,
		Workers:    e2eWorkers,
	})
	if err != nil {
		t.Fatalf("ref tx miner: %v", err)
	}
	for _, rows := range txBlocks {
		if _, err := tm.AddBlock(rows); err != nil {
			t.Fatalf("ref tx add: %v", err)
		}
	}
	if err := tm.Checkpoint(); err != nil {
		t.Fatalf("ref tx checkpoint: %v", err)
	}

	ptStore, err := demon.OpenStore("file:" + filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatalf("ref pt store: %v", err)
	}
	cm, err := demon.NewClusterMiner(demon.ClusterMinerConfig{K: e2eK, Store: ptStore, Workers: e2eWorkers})
	if err != nil {
		t.Fatalf("ref cluster miner: %v", err)
	}
	for _, pts := range ptBlocks {
		if _, err := cm.AddBlock(pts); err != nil {
			t.Fatalf("ref pt add: %v", err)
		}
	}
	if err := cm.Checkpoint(); err != nil {
		t.Fatalf("ref pt checkpoint: %v", err)
	}
	return storeDigest(t, txStore), storeDigest(t, ptStore)
}

// e2eClient streams blocks one POST at a time, retrying each block until
// the server accepts it: 429 (backpressure), 503 (draining) and connection
// errors during the restart window all mean "try again", while 202 with
// accepted=1 means the block is owned by the server — durable once drained
// — and must NOT be re-sent.
type e2eClient struct {
	t       *testing.T
	baseURL *atomic.Value // string
	ns      string
}

func (c *e2eClient) send(b blockio.Block) {
	var body strings.Builder
	if err := blockio.NewEncoder(&body).Encode(b); err != nil {
		c.t.Errorf("encode: %v", err)
		return
	}
	for {
		resp, err := http.Post(c.baseURL.Load().(string)+"/v1/namespaces/"+c.ns+"/blocks",
			"application/x-ndjson", strings.NewReader(body.String()))
		if err != nil {
			time.Sleep(5 * time.Millisecond) // server restarting
			continue
		}
		var res ingestResult
		decErr := json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted && decErr == nil && res.Accepted == 1:
			return
		case resp.StatusCode == http.StatusTooManyRequests,
			resp.StatusCode == http.StatusServiceUnavailable:
			time.Sleep(5 * time.Millisecond)
		default:
			c.t.Errorf("ns %s: unexpected ingest response %d (%+v, decode err %v)", c.ns, resp.StatusCode, res, decErr)
			return
		}
	}
}

func TestE2EDrainRestartDigest(t *testing.T) {
	txBlocks := e2eTxData(t)
	ptBlocks := e2ePtData(t)
	wantTx, wantPt := referenceDigests(t, txBlocks, ptBlocks)

	root := t.TempDir()
	s := mustServer(t, root)
	if _, err := s.Create(Spec{Name: "tx", Kind: KindItemset, MinSupport: e2eMinSupport, Strategy: "ecut", Workers: e2eWorkers, QueueDepth: 4}); err != nil {
		t.Fatalf("create tx: %v", err)
	}
	if _, err := s.Create(Spec{Name: "pts", Kind: KindCluster, K: e2eK, Workers: e2eWorkers, QueueDepth: 4}); err != nil {
		t.Fatalf("create pts: %v", err)
	}
	ts := httptest.NewServer(s.Handler())

	var baseURL atomic.Value
	baseURL.Store(ts.URL)

	// Query hammers: concurrent reads from the RWMutex read surfaces while
	// ingestion mutates, across the restart. Responses must stay internally
	// consistent: T never goes backwards (durability would be broken) and
	// every 200 decodes cleanly.
	stopQueries := make(chan struct{})
	var queryWG sync.WaitGroup
	var queries atomic.Int64
	for _, path := range []string{
		"/v1/namespaces/tx/itemsets?top=8",
		"/v1/namespaces/tx/border",
		"/v1/namespaces/tx/rules?minconf=0.6",
		"/v1/namespaces/pts/clusters",
		"/namespacesz",
	} {
		queryWG.Add(1)
		go func(path string) {
			defer queryWG.Done()
			lastT := make(map[string]demon.BlockID)
			for {
				select {
				case <-stopQueries:
					return
				default:
				}
				time.Sleep(2 * time.Millisecond) // hammer, but leave cycles for mining
				resp, err := http.Get(baseURL.Load().(string) + path)
				if err != nil {
					continue // restart window
				}
				if resp.StatusCode == http.StatusOK {
					var raw json.RawMessage
					if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
						t.Errorf("query %s: bad JSON: %v", path, err)
					}
					if path == "/namespacesz" {
						var statuses []nsStatus
						if err := json.Unmarshal(raw, &statuses); err == nil {
							for _, st := range statuses {
								if st.T < lastT[st.Spec.Name] {
									t.Errorf("namespace %s: T went backwards %d -> %d", st.Spec.Name, lastT[st.Spec.Name], st.T)
								}
								lastT[st.Spec.Name] = st.T
							}
						}
					}
					queries.Add(1)
				}
				resp.Body.Close()
			}
		}(path)
	}

	// Two concurrent clients, one per namespace.
	half := e2eTxBlocks / 2
	var firstHalf sync.WaitGroup
	firstHalf.Add(2)
	var clientWG sync.WaitGroup
	clientWG.Add(2)
	go func() {
		defer clientWG.Done()
		c := &e2eClient{t: t, baseURL: &baseURL, ns: "tx"}
		for i, rows := range txBlocks {
			c.send(blockio.TxBlock(rows))
			if i == half-1 {
				firstHalf.Done()
			}
		}
	}()
	go func() {
		defer clientWG.Done()
		c := &e2eClient{t: t, baseURL: &baseURL, ns: "pts"}
		for i, pts := range ptBlocks {
			c.send(blockio.PointBlock(pts))
			if i == half-1 {
				firstHalf.Done()
			}
		}
	}()

	// Mid-stream SIGTERM: drain (stop intake, empty queues, checkpoint) and
	// tear the listener down while both clients still have blocks to send.
	firstHalf.Wait()
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("mid-stream drain: %v", err)
	}
	cancel()
	ts.Close()

	// Restart over the same root: every namespace resumes from its drained
	// checkpoint; clients then finish their streams against the new listener.
	s2 := mustServer(t, root)
	for _, name := range []string{"tx", "pts"} {
		n, ok := s2.Namespace(name)
		if !ok {
			t.Fatalf("restart lost namespace %s", name)
		}
		if n.T() == 0 {
			t.Fatalf("namespace %s resumed at block 0 — drained blocks were lost", name)
		}
	}
	ts2 := httptest.NewServer(s2.Handler())
	baseURL.Store(ts2.URL)

	clientWG.Wait()
	close(stopQueries)
	queryWG.Wait()
	if queries.Load() == 0 {
		t.Errorf("query hammers never completed a successful read")
	}

	// Final drain checkpoints at the stream end; the stores must now be
	// byte-identical to the uninterrupted single-process runs.
	drainCtx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s2.Drain(drainCtx2); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	ts2.Close()

	txNS, _ := s2.Namespace("tx")
	ptNS, _ := s2.Namespace("pts")
	if n := txNS.T(); int(n) != e2eTxBlocks {
		t.Fatalf("tx namespace ended at block %d, want %d", n, e2eTxBlocks)
	}
	if n := ptNS.T(); int(n) != e2ePtBlocks {
		t.Fatalf("pts namespace ended at block %d, want %d", n, e2ePtBlocks)
	}
	if got := storeDigest(t, txNS.Store()); got != wantTx {
		t.Errorf("tx store digest diverges from the uninterrupted run:\n got %s\nwant %s", got, wantTx)
	}
	if got := storeDigest(t, ptNS.Store()); got != wantPt {
		t.Errorf("pts store digest diverges from the uninterrupted run:\n got %s\nwant %s", got, wantPt)
	}

	// The recovered stores also pass a full checksum scrub.
	for _, n := range []*Namespace{txNS, ptNS} {
		rep, err := demon.ScrubStore(n.Store(), "")
		if err != nil {
			t.Fatalf("scrub %s: %v", n.Spec().Name, err)
		}
		if len(rep.Quarantined) != 0 {
			t.Errorf("scrub %s quarantined %v", n.Spec().Name, rep.Quarantined)
		}
	}
}
