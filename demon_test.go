package demon

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// randomTxRows draws random transaction rows.
func randomTxRows(rng *rand.Rand, n, universe, avgLen int) [][]Item {
	rows := make([][]Item, n)
	for i := range rows {
		m := 1 + rng.Intn(2*avgLen)
		rows[i] = make([]Item, m)
		for j := range rows[i] {
			rows[i][j] = Item(rng.Intn(universe))
		}
	}
	return rows
}

// aprioriRef computes the reference lattice over the concatenation of rows.
func aprioriRef(t *testing.T, blocks [][][]Item, minsup float64) *Lattice {
	t.Helper()
	var txs []itemset.Transaction
	tid := 0
	for _, rows := range blocks {
		for _, row := range rows {
			txs = append(txs, itemset.Transaction{TID: tid, Items: NewItemset(row...)})
			tid++
		}
	}
	l, err := itemset.Apriori(itemset.SliceSource(txs), nil, minsup)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func assertLatticeEqual(t *testing.T, got, want *Lattice) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("N = %d, want %d", got.N, want.N)
	}
	if len(got.Frequent) != len(want.Frequent) {
		t.Fatalf("|L| = %d, want %d", len(got.Frequent), len(want.Frequent))
	}
	for k, c := range want.Frequent {
		if got.Frequent[k] != c {
			t.Fatalf("count(%v) = %d, want %d", k.Itemset(), got.Frequent[k], c)
		}
	}
}

func TestItemsetMinerAllStrategies(t *testing.T) {
	for _, strategy := range []CountingStrategy{PTScan, ECUT, ECUTPlus} {
		t.Run(strategy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			var all [][][]Item
			for step := 0; step < 3; step++ {
				rows := randomTxRows(rng, 60, 12, 4)
				all = append(all, rows)
				rep, err := m.AddBlock(rows)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Block != BlockID(step+1) || !rep.Selected {
					t.Fatalf("report %+v", rep)
				}
				assertLatticeEqual(t, m.Lattice(), aprioriRef(t, all, 0.1))
			}
			if m.T() != 3 {
				t.Fatalf("T = %d", m.T())
			}
			fi := m.FrequentItemsets()
			if len(fi) == 0 {
				t.Fatal("no frequent itemsets")
			}
			for _, s := range fi {
				if s.Support <= 0 || s.Support > 1 || s.Count <= 0 {
					t.Fatalf("bad support entry %+v", s)
				}
			}
		})
	}
}

func TestItemsetMinerBSSSkipsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Select odd blocks only.
	m, err := NewItemsetMiner(ItemsetMinerConfig{
		MinSupport: 0.1,
		BSS:        BSSFunc(func(id BlockID) bool { return id%2 == 1 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	var selected [][][]Item
	for step := 1; step <= 4; step++ {
		rows := randomTxRows(rng, 50, 10, 4)
		rep, err := m.AddBlock(rows)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Selected != (step%2 == 1) {
			t.Fatalf("block %d Selected = %v", step, rep.Selected)
		}
		if step%2 == 1 {
			selected = append(selected, rows)
		}
	}
	assertLatticeEqual(t, m.Lattice(), aprioriRef(t, selected, 0.1))
	if got := m.ModelBlocks(); !reflect.DeepEqual(got, []BlockID{1, 3}) {
		t.Fatalf("ModelBlocks = %v", got)
	}
}

func TestItemsetMinerDeleteOldest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var all [][][]Item
	for step := 0; step < 3; step++ {
		rows := randomTxRows(rng, 50, 10, 4)
		all = append(all, rows)
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.DeleteOldestBlock(); err != nil {
		t.Fatal(err)
	}
	assertLatticeEqual(t, m.Lattice(), aprioriRef(t, all[1:], 0.1))

	// Deleting everything then once more errors.
	if _, err := m.DeleteOldestBlock(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteOldestBlock(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteOldestBlock(); err == nil {
		t.Fatal("DeleteOldestBlock on empty model succeeded")
	}
}

func TestItemsetMinerChangeMinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rows := randomTxRows(rng, 100, 10, 4)
	if _, err := m.AddBlock(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ChangeMinSupport(0.1); err != nil {
		t.Fatal(err)
	}
	assertLatticeEqual(t, m.Lattice(), aprioriRef(t, [][][]Item{rows}, 0.1))
}

func TestItemsetMinerConfigValidation(t *testing.T) {
	if _, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0}); err == nil {
		t.Error("accepted κ = 0")
	}
	if _, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Strategy: CountingStrategy(99)}); err == nil {
		t.Error("accepted unknown strategy")
	}
}

func TestItemsetWindowMinerSlides(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{
		MinSupport: 0.1, WindowSize: 2, Strategy: ECUT,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][][]Item
	for step := 0; step < 4; step++ {
		rows := randomTxRows(rng, 50, 10, 4)
		blocks = append(blocks, rows)
		rep, err := m.AddBlock(rows)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Response <= 0 && step > 0 {
			t.Fatalf("step %d response time %v", step, rep.Response)
		}
		// Current model must equal Apriori over the last min(w, t) blocks.
		lo := len(blocks) - 2
		if lo < 0 {
			lo = 0
		}
		assertLatticeEqual(t, m.Current(), aprioriRef(t, blocks[lo:], 0.1))
	}
	if m.Window() != (Window{Lo: 3, Hi: 4}) {
		t.Fatalf("Window = %v", m.Window())
	}
	if len(m.FrequentItemsets()) == 0 {
		t.Fatal("no frequent itemsets in window")
	}
}

func TestItemsetWindowMinerWindowRelative(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rel, err := ParseWindowRelBSS("101")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.1, WindowRelBSS: rel})
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][][]Item
	for step := 0; step < 4; step++ {
		rows := randomTxRows(rng, 40, 10, 4)
		blocks = append(blocks, rows)
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	// At t = 4 with ⟨101⟩ the window is D[2,4] and positions 1,3 are
	// selected: blocks 2 and 4.
	assertLatticeEqual(t, m.Current(), aprioriRef(t, [][][]Item{blocks[1], blocks[3]}, 0.1))
	if m.DistinctModels() != 3 {
		t.Fatalf("DistinctModels = %d", m.DistinctModels())
	}
}

func TestItemsetWindowMinerValidation(t *testing.T) {
	if _, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.1}); err == nil {
		t.Error("accepted missing window size")
	}
	rel, _ := ParseWindowRelBSS("11")
	if _, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{
		MinSupport: 0.1, WindowRelBSS: rel, WindowSize: 3,
	}); err == nil {
		t.Error("accepted conflicting window size")
	}
	if _, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 2, WindowSize: 2}); err == nil {
		t.Error("accepted κ = 2")
	}
}

func clusterRows(rng *rand.Rand, centers []Point, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		p := make(Point, len(c))
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

func TestClusterMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	centers := []Point{{0, 0}, {40, 40}}
	m, err := NewClusterMiner(ClusterMinerConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if _, err := m.AddBlock(clusterRows(rng, centers, 400)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := m.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("clusters = %d", len(cs))
	}
	totalN := 0
	for _, c := range cs {
		totalN += c.N
		best := math.Inf(1)
		for _, truth := range centers {
			d := 0.0
			for i := range truth {
				d += (c.Centroid[i] - truth[i]) * (c.Centroid[i] - truth[i])
			}
			if d = math.Sqrt(d); d < best {
				best = d
			}
		}
		if best > 1 {
			t.Fatalf("centroid %v off by %v", c.Centroid, best)
		}
		if c.Radius <= 0 || c.Radius > 3 {
			t.Fatalf("radius %v implausible", c.Radius)
		}
	}
	if totalN != 1200 {
		t.Fatalf("clusters cover %d points, want 1200", totalN)
	}
	labels, err := m.Assign([]Point{{1, 1}, {39, 39}})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] == labels[1] {
		t.Fatal("distant points assigned to the same cluster")
	}
	// A point of another dimension is an error naming it, not a panic.
	_, err = m.Assign([]Point{{1, 1}, {1, 2, 3}})
	if err == nil || !strings.Contains(err.Error(), "point 1 has dimension 3") || !strings.Contains(err.Error(), "dimension 2") {
		t.Fatalf("Assign of a 3-d point to 2-d clusters: %v", err)
	}
	if m.NumSubClusters() == 0 || m.T() != 3 {
		t.Fatalf("state: subclusters=%d T=%d", m.NumSubClusters(), m.T())
	}
}

func TestClusterMinerBSS(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, err := NewClusterMiner(ClusterMinerConfig{
		K:   1,
		BSS: BSSFunc(func(id BlockID) bool { return id == 2 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Block 1 (skipped) far from block 2 (selected).
	if _, err := m.AddBlock(clusterRows(rng, []Point{{1000, 1000}}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBlock(clusterRows(rng, []Point{{0, 0}}, 100)); err != nil {
		t.Fatal(err)
	}
	cs, err := m.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].N != 100 {
		t.Fatalf("clusters = %+v", cs)
	}
	if math.Abs(cs[0].Centroid[0]) > 2 {
		t.Fatalf("skipped block leaked into the model: centroid %v", cs[0].Centroid)
	}
}

func TestClusterWindowMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := NewClusterWindowMiner(ClusterWindowMinerConfig{K: 1, WindowSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Three blocks at distinct locations; the window keeps the last two.
	locs := []Point{{0, 0}, {100, 0}, {200, 0}}
	for _, loc := range locs {
		if err := m.AddBlock(clusterRows(rng, []Point{loc}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := m.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("clusters = %d", len(cs))
	}
	// Mean of blocks 2 and 3 is x = 150.
	if math.Abs(cs[0].Centroid[0]-150) > 2 {
		t.Fatalf("window model centroid %v, want x ≈ 150", cs[0].Centroid)
	}
	if cs[0].N != 400 {
		t.Fatalf("window model N = %d, want 400", cs[0].N)
	}
	if m.Window() != (Window{Lo: 2, Hi: 3}) || m.T() != 3 {
		t.Fatalf("window state %v T=%d", m.Window(), m.T())
	}
}

func TestClusterWindowMinerValidation(t *testing.T) {
	if _, err := NewClusterWindowMiner(ClusterWindowMinerConfig{K: 1}); err == nil {
		t.Error("accepted missing window size")
	}
	if _, err := NewClusterWindowMiner(ClusterWindowMinerConfig{K: 0, WindowSize: 2}); err == nil {
		t.Error("accepted K = 0")
	}
}

func TestMonitorFindsRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, err := NewMonitor(MonitorConfig{MinSupport: 0.05, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Regime A on blocks 1-3, regime B (disjoint items) on blocks 4-5.
	regime := func(base Item, n int) [][]Item {
		rows := make([][]Item, n)
		for i := range rows {
			rows[i] = []Item{base, base + 1, base + Item(rng.Intn(3))}
		}
		return rows
	}
	for i := 0; i < 3; i++ {
		if _, err := m.AddBlock(regime(0, 300)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := m.AddBlock(regime(100, 300)); err != nil {
			t.Fatal(err)
		}
	}
	pats := m.Patterns()
	want := [][]BlockID{{1, 2, 3}, {4, 5}}
	if !reflect.DeepEqual(pats, want) {
		t.Fatalf("Patterns = %v, want %v", pats, want)
	}
	score, p, ok := m.Similarity(1, 4)
	if !ok || p > 0.01 || score <= 0 {
		t.Fatalf("Similarity(1,4) = %v, %v, %v", score, p, ok)
	}
	if m.T() != 5 {
		t.Fatalf("T = %d", m.T())
	}
}

func TestCyclicPatternFacade(t *testing.T) {
	got := CyclicPattern([]BlockID{1, 3, 4, 5, 7}, 2)
	if !reflect.DeepEqual(got, []BlockID{1, 3, 5, 7}) {
		t.Fatalf("CyclicPattern = %v", got)
	}
}

func TestClusterMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := NewClusterMonitor(ClusterMonitorConfig{K: 2, Alpha: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	regimeA := []Point{{0, 0}, {50, 50}}
	regimeB := []Point{{25, 0}, {0, 25}}
	for i := 0; i < 2; i++ {
		if _, err := m.AddBlock(clusterRows(rng, regimeA, 400)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AddBlock(clusterRows(rng, regimeB, 400)); err != nil {
		t.Fatal(err)
	}
	pats := m.Patterns()
	want := [][]BlockID{{1, 2}, {3}}
	if !reflect.DeepEqual(pats, want) {
		t.Fatalf("Patterns = %v, want %v", pats, want)
	}
}

func TestCountingStrategyString(t *testing.T) {
	if PTScan.String() != "PT-Scan" || ECUT.String() != "ECUT" ||
		ECUTPlus.String() != "ECUT+" {
		t.Fatal("strategy names wrong")
	}
	if CountingStrategy(42).String() != "unknown" {
		t.Fatal("unknown strategy name")
	}
}

func TestStoreAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	store := NewMemStore()
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Store: store, Strategy: ECUT})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBlock(randomTxRows(rng, 50, 10, 4)); err != nil {
		t.Fatal(err)
	}
	st := m.Store().Stats()
	if st.BytesWritten == 0 {
		t.Fatal("no bytes written during ingest")
	}
}

// TestItemsetMinerParallelWorkers: a miner with sharded counting must match
// the serial miner exactly.
func TestItemsetMinerParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	serial, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Strategy: ECUT})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Strategy: ECUT, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		rows := randomTxRows(rng, 60, 10, 4)
		if _, err := serial.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := parallel.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
		assertLatticeEqual(t, parallel.Lattice(), serial.Lattice())
	}
}

func TestFileStoreBackedMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Strategy: ECUTPlus, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var all [][][]Item
	for i := 0; i < 2; i++ {
		rows := randomTxRows(rng, 50, 10, 4)
		all = append(all, rows)
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	assertLatticeEqual(t, m.Lattice(), aprioriRef(t, all, 0.1))
	if store.Stats().BytesWritten == 0 {
		t.Fatal("file store saw no writes")
	}
}

func TestMonitorBootstrapAndWindow(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{MinSupport: 0.1, Alpha: 0.01, Window: 2, Bootstrap: true, Resamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Item, 100)
	for i := range rows {
		rows[i] = []Item{1, 2}
	}
	for i := 0; i < 3; i++ {
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if m.T() != 3 {
		t.Fatalf("T = %d", m.T())
	}
	// Window 2: block 1 expired from every sequence.
	for _, seq := range m.AllSequences() {
		for _, id := range seq {
			if id < 2 {
				t.Fatalf("expired block %d still in %v", id, seq)
			}
		}
	}
	if _, err := NewMonitor(MonitorConfig{MinSupport: 0, Alpha: 0.01}); err == nil {
		t.Error("accepted κ = 0")
	}
	if _, err := NewMonitor(MonitorConfig{MinSupport: 0.1, Alpha: 0}); err == nil {
		t.Error("accepted α = 0")
	}
}

// TestFrequent2ItemsetsBySupportOrder pins the order ECUT+ ranks pairs in:
// count descending, then itemset key ascending. Keys are varint byte strings,
// so among equal counts item 300 (0xac 0x02) sorts before item 200 (0xc8
// 0x01) and after 128 (0x80 0x01); a budget cuts this list, so the order
// decides what is stored.
func TestFrequent2ItemsetsBySupportOrder(t *testing.T) {
	l := itemset.NewLattice(0.1)
	l.N = 100
	for _, it := range []Item{1, 127, 128, 200, 300} {
		l.Frequent[itemset.NewItemset(it).Key()] = 50
	}
	for _, it := range []Item{200, 127, 300, 128} {
		l.Frequent[itemset.NewItemset(1, it).Key()] = 20
	}
	l.Frequent[itemset.NewItemset(127, 128).Key()] = 30
	l.Frequent[itemset.NewItemset(1, 127, 128).Key()] = 20
	got := frequent2ItemsetsBySupport(borders.FromLattice(l))
	want := []itemset.Itemset{{127, 128}, {1, 127}, {1, 128}, {1, 300}, {1, 200}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestAddBlockRefusesNegativeItems: rows carrying an item id below zero used
// to reach the delta codec and panic. Every transaction miner and the monitor
// refuse them with ErrNegativeItem before the step begins: nothing reaches
// the store, the position does not move, and the next valid block goes in.
func TestAddBlockRefusesNegativeItems(t *testing.T) {
	bad, good := [][]Item{{1, 2}, {-5, 3}}, [][]Item{{1, 2}, {2, 3}}
	for name, open := range map[string]func(Store) (add func([][]Item) error, pos func() BlockID){
		"itemset": func(s Store) (func([][]Item) error, func() BlockID) {
			m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.5, Strategy: ECUT, Store: s})
			if err != nil {
				t.Fatal(err)
			}
			return func(rows [][]Item) error { _, err := m.AddBlock(rows); return err }, m.T
		},
		"window": func(s Store) (func([][]Item) error, func() BlockID) {
			m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.5, Strategy: ECUT, WindowSize: 2, Store: s})
			if err != nil {
				t.Fatal(err)
			}
			return func(rows [][]Item) error { _, err := m.AddBlock(rows); return err }, m.T
		},
		"monitor": func(s Store) (func([][]Item) error, func() BlockID) {
			m, err := NewMonitor(MonitorConfig{MinSupport: 0.5, Alpha: 0.01, Store: s})
			if err != nil {
				t.Fatal(err)
			}
			return func(rows [][]Item) error { _, err := m.AddBlock(rows); return err }, m.T
		},
	} {
		store := NewMemStore()
		add, pos := open(store)
		before, err := diskio.Digest(store)
		if err != nil {
			t.Fatal(err)
		}
		if err := add(bad); !errors.Is(err, ErrNegativeItem) {
			t.Fatalf("%s: AddBlock of a negative item = %v, want ErrNegativeItem", name, err)
		}
		if after, _ := diskio.Digest(store); after != before || pos() != 0 {
			t.Fatalf("%s: the refused block moved the store or the position (t = %d)", name, pos())
		}
		if err := add(good); err != nil || pos() != 1 {
			t.Fatalf("%s: the valid block after the refusal = %v, t = %d; want block 1 accepted", name, err, pos())
		}
	}
}
