package demon

import (
	"context"
	"fmt"
	"time"

	"github.com/demon-mining/demon/internal/birch"
	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/durable"
	"github.com/demon-mining/demon/internal/gemm"
	"github.com/demon-mining/demon/internal/obs"
)

// Cluster is one output cluster of the clustering miners.
type Cluster struct {
	// Centroid is the cluster center.
	Centroid Point
	// N is the number of points in the cluster.
	N int
	// Radius is the root-mean-squared distance of the cluster's points to
	// the centroid.
	Radius float64
}

func toClusters(m *birch.Model) []Cluster {
	out := make([]Cluster, len(m.Clusters))
	for i, c := range m.Clusters {
		out[i] = Cluster{Centroid: c.Centroid(), N: c.CF.N, Radius: c.CF.Radius()}
	}
	return out
}

// ClusterMinerConfig configures a ClusterMiner.
type ClusterMinerConfig struct {
	// K is the required number of clusters.
	K int
	// BSS optionally restricts which blocks enter the model; defaults to
	// all blocks.
	BSS BSS
	// Tree overrides the CF-tree parameters; the zero value selects the
	// defaults (branching 8, 16 leaf entries per node, 512 sub-clusters).
	Tree cf.TreeConfig
	// Store optionally persists point blocks and checkpoints. Without one
	// the miner is purely in-memory and cannot checkpoint.
	Store Store
	// Workers has no effect: phase 2 is serial (kept for benchmark/miners.go).
	Workers int
	// AutoCheckpointEvery checkpoints the resident CF-tree automatically
	// after every N-th block, inside the same atomic transaction as the
	// block itself. Requires Store; zero or negative disables automatic
	// checkpoints.
	AutoCheckpointEvery int
	// TxnHook, when non-nil, runs inside every AddBlock transaction before
	// commit (requires Store); see ItemsetMinerConfig.TxnHook.
	TxnHook func(store Store, id BlockID) error
}

// treeConfig resolves a configuration's Tree field: zero selects the defaults.
func treeConfig(t cf.TreeConfig) cf.TreeConfig {
	if t == (cf.TreeConfig{}) {
		return cf.DefaultTreeConfig()
	}
	return t
}

// ClusterMiner maintains a cluster model over the unrestricted window of a
// systematically evolving database of points, using BIRCH+: the set of
// sub-clusters stays resident and each new block is scanned exactly once.
type ClusterMiner struct {
	// The shell (sh) runs AddBlock and Checkpoint and makes readers
	// (Clusters, Assign, T, NumSubClusters) safe concurrently with them.
	checkpointed
	cfg  ClusterMinerConfig
	pts  *birch.PointStore // over sh.Store(); nil when in-memory
	plus *birch.Plus
	bss  BSS
}

// NewClusterMiner creates a miner over an empty database. With a configured
// Store, incomplete transactions left by a crash are recovered first.
func NewClusterMiner(cfg ClusterMinerConfig) (*ClusterMiner, error) {
	plus, err := birch.NewPlus(birch.Config{Tree: treeConfig(cfg.Tree), K: cfg.K})
	if err != nil {
		return nil, err
	}
	bss := cfg.BSS
	if bss == nil {
		bss = AllBlocks()
	}
	m := &ClusterMiner{cfg: cfg, plus: plus, bss: bss}
	m.sh, err = durable.New(durable.Config{Store: cfg.Store, CheckpointEvery: cfg.AutoCheckpointEvery,
		Hook: cfg.TxnHook, Save: m.saveCheckpoint})
	if err != nil {
		return nil, err
	}
	if io := m.sh.Store(); io != nil {
		m.pts = birch.NewPointStore(io)
	}
	return m, nil
}

// AddBlock appends the next block of points; when the BSS selects it, the
// resident sub-cluster set absorbs it (one scan). It returns the response
// time of the scan.
//
// With a configured Store, the point block and the automatic checkpoint
// (when one is due) commit as a single atomic transaction. On error — with
// or without a Store — the tree may have absorbed part of the block, so the
// miner becomes unusable; reopen it with ResumeClusterMiner.
func (m *ClusterMiner) AddBlock(points []Point) (time.Duration, error) {
	return m.AddBlockCtx(context.Background(), points)
}

// AddBlockCtx is AddBlock carrying a request context: when ctx belongs to a
// sampled trace, the block's clustering span and the storage transaction
// commit record into that trace.
func (m *ClusterMiner) AddBlockCtx(ctx context.Context, points []Point) (elapsed time.Duration, err error) {
	err = m.sh.Step(ctx, obs.Default().Timer("miner.cluster.addblock.ns"), func(_ context.Context, id BlockID) error {
		if m.pts != nil {
			if err := m.pts.Put(&birch.PointBlock{ID: id, Points: points}); err != nil {
				return fmt.Errorf("demon: storing point block %d: %w", id, err)
			}
		}
		if m.bss.Bit(id) {
			start := time.Now()
			if err := m.plus.AddBlock(points); err != nil {
				return fmt.Errorf("demon: clustering block %d: %w", id, err)
			}
			elapsed = time.Since(start)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return elapsed, nil
}

// Clusters runs BIRCH phase 2 on the resident sub-clusters and returns the
// K clusters of all selected data so far.
func (m *ClusterMiner) Clusters() ([]Cluster, error) {
	m.sh.RLock()
	defer m.sh.RUnlock()
	model, err := m.plus.Clusters()
	if err != nil {
		return nil, err
	}
	return toClusters(model), nil
}

// Assign labels each point with the index of its nearest cluster — the
// optional second scan of Section 3.1.2.
func (m *ClusterMiner) Assign(points []Point) ([]int, error) {
	m.sh.RLock()
	defer m.sh.RUnlock()
	model, err := m.plus.Clusters()
	if err != nil {
		return nil, err
	}
	cents := model.Centroids()
	out := make([]int, len(points))
	for i, p := range points {
		if len(cents) > 0 && len(p) != len(cents[0]) {
			return nil, fmt.Errorf("demon: point %d has dimension %d, the clusters have dimension %d", i, len(p), len(cents[0]))
		}
		out[i] = birch.Nearest(cents, p)
	}
	return out, nil
}

// NumSubClusters returns the size of the resident sub-cluster set.
func (m *ClusterMiner) NumSubClusters() int {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.plus.NumSubClusters()
}

// birchAdapter lets GEMM drive BIRCH+ — each GEMM slot owns an independent
// CF-tree, exactly the "collection of models" of Section 3.2 (BIRCH
// sub-cluster sets cannot be maintained under deletions, which is the
// paper's canonical argument for GEMM).
type birchAdapter struct {
	cfg birch.Config
}

func (a birchAdapter) Empty(*birch.Plus) *birch.Plus {
	p, err := birch.NewPlus(a.cfg)
	if err != nil {
		// Config is validated at miner construction; a failure here is a
		// programming error.
		panic(fmt.Sprintf("demon: birch adapter: %v", err))
	}
	return p
}

func (a birchAdapter) Add(p *birch.Plus, blk []cf.Point) (*birch.Plus, error) {
	if err := p.AddBlock(blk); err != nil {
		return nil, err
	}
	return p, nil
}

// ClusterWindowMinerConfig configures a ClusterWindowMiner; the field
// semantics mirror ItemsetWindowMinerConfig.
type ClusterWindowMinerConfig struct {
	// K is the required number of clusters.
	K int
	// WindowSize is the number of most recent blocks mined (required unless
	// WindowRelBSS is set).
	WindowSize int
	// BSS optionally restricts the window-independent selection.
	BSS BSS
	// WindowRelBSS optionally gives a window-relative selection.
	WindowRelBSS WindowRelBSS
	// Tree overrides the CF-tree parameters.
	Tree cf.TreeConfig
	// Workers fans AddBlock's per-slot CF-tree updates across worker
	// goroutines. Zero or negative selects GOMAXPROCS; 1 keeps maintenance
	// serial. The models are identical for every worker count.
	Workers int
}

// windowMiner is what the in-memory window miners are, bar their payload:
// GEMM is generic in the block and model types, so the lock, the position and
// the sticky failure around it (a storeless durable.Shell) are written once.
type windowMiner[B, M any] struct {
	resident
	g *gemm.GEMM[B, M]
}

func newWindowMiner[B, M any](am gemm.Maintainer[B, M], w int, bss BSS, rel WindowRelBSS, workers int) (windowMiner[B, M], error) {
	g, err := gemm.New(am, w, bss, rel)
	if err != nil {
		return windowMiner[B, M]{}, err
	}
	g.SetWorkers(workers)
	sh, _ := durable.New(durable.Config{}) // storeless: no store to recover, so no error
	return windowMiner[B, M]{resident{sh}, g}, nil
}

// addBlock runs the next block through the shell and GEMM's update step.
func (m *windowMiner[B, M]) addBlock(blk B) error {
	return m.sh.Step(context.Background(), nil, func(_ context.Context, id BlockID) error {
		return m.g.AddBlock(blk, id)
	})
}

// Window returns the current most recent window.
func (m *windowMiner[B, M]) Window() Window {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.g.Window()
}

// ClusterWindowMiner maintains a cluster model over the most recent window —
// GEMM instantiated with BIRCH+.
type ClusterWindowMiner struct {
	// The core runs AddBlock and makes readers (Clusters, Window, T) safe
	// concurrently with it.
	windowMiner[[]cf.Point, *birch.Plus]
}

// NewClusterWindowMiner creates a window miner over an empty database.
func NewClusterWindowMiner(cfg ClusterWindowMinerConfig) (*ClusterWindowMiner, error) {
	bcfg := birch.Config{Tree: treeConfig(cfg.Tree), K: cfg.K}
	if _, err := birch.NewPlus(bcfg); err != nil {
		return nil, err // validate once, so the adapter's Empty cannot fail
	}
	core, err := newWindowMiner[[]cf.Point, *birch.Plus](birchAdapter{cfg: bcfg}, cfg.WindowSize, cfg.BSS, cfg.WindowRelBSS, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &ClusterWindowMiner{core}, nil
}

// AddBlock appends the next block of points and updates the collection of
// models. On error the miner becomes unusable.
func (m *ClusterWindowMiner) AddBlock(points []Point) error { return m.addBlock(points) }

// Clusters returns the cluster model of the current window with respect to
// the BSS.
func (m *ClusterWindowMiner) Clusters() ([]Cluster, error) {
	m.sh.RLock()
	defer m.sh.RUnlock()
	model, err := m.g.Current().Clusters()
	if err != nil {
		return nil, err
	}
	return toClusters(model), nil
}
