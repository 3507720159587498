package demon

// Concurrent-reader tests: every public miner and monitor documents that any
// number of readers may run alongside one mutator. Each test hammers the read
// surface from several goroutines while the main goroutine mutates, and is
// meaningful under the race detector (make race-differential runs them with
// -race).

import (
	"math/rand"
	"sync"
	"testing"
)

// hammer runs read concurrently from several goroutines while mutate runs on
// the calling goroutine, then stops the readers.
func hammer(read, mutate func()) {
	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}
	mutate()
	close(stop)
	wg.Wait()
}

// hammerTxs returns numBlocks small random transaction blocks.
func hammerTxs(seed int64, numBlocks, blockSize int) [][][]Item {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][][]Item, numBlocks)
	for b := range blocks {
		rows := make([][]Item, blockSize)
		for i := range rows {
			n := 1 + rng.Intn(5)
			row := make([]Item, n)
			for j := range row {
				row[j] = Item(rng.Intn(20))
			}
			rows[i] = row
		}
		blocks[b] = rows
	}
	return blocks
}

// hammerPts returns numBlocks small random 2-d point blocks.
func hammerPts(seed int64, numBlocks, blockSize int) [][]Point {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]Point, numBlocks)
	for b := range blocks {
		pts := make([]Point, blockSize)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 10, rng.Float64() * 10}
		}
		blocks[b] = pts
	}
	return blocks
}

func TestConcurrentReadersItemsetMiner(t *testing.T) {
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerTxs(1, 4, 80)
	hammer(func() {
		m.Lattice()
		m.FrequentItemsets()
		m.T()
		m.ModelBlocks()
	}, func() {
		for _, rows := range blocks {
			if _, err := m.AddBlock(rows); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := m.DeleteOldestBlock(); err != nil {
			t.Error(err)
		}
		if _, err := m.ChangeMinSupport(0.05); err != nil {
			t.Error(err)
		}
	})
}

func TestConcurrentReadersItemsetWindowMiner(t *testing.T) {
	m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{
		MinSupport: 0.1, WindowSize: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerTxs(2, 4, 80)
	hammer(func() {
		m.Current()
		m.FrequentItemsets()
		m.Window()
		m.T()
		m.DistinctModels()
	}, func() {
		for _, rows := range blocks {
			if _, err := m.AddBlock(rows); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

func TestConcurrentReadersClusterMiner(t *testing.T) {
	m, err := NewClusterMiner(ClusterMinerConfig{K: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerPts(3, 4, 60)
	probe := blocks[0][:4]
	hammer(func() {
		m.Clusters()
		m.Assign(probe)
		m.T()
		m.NumSubClusters()
	}, func() {
		for _, pts := range blocks {
			if _, err := m.AddBlock(pts); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

func TestConcurrentReadersClusterWindowMiner(t *testing.T) {
	m, err := NewClusterWindowMiner(ClusterWindowMinerConfig{
		K: 2, WindowSize: 2, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerPts(4, 4, 60)
	hammer(func() {
		m.Clusters()
		m.Window()
		m.T()
	}, func() {
		for _, pts := range blocks {
			if err := m.AddBlock(pts); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

func TestConcurrentReadersMonitor(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{MinSupport: 0.1, Alpha: 0.05, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerTxs(5, 4, 60)
	hammer(func() {
		m.Patterns()
		m.AllSequences()
		m.Similarity(1, 2)
		m.T()
	}, func() {
		for _, rows := range blocks {
			if _, err := m.AddBlock(rows); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

func TestConcurrentReadersClusterMonitor(t *testing.T) {
	m, err := NewClusterMonitor(ClusterMonitorConfig{K: 2, Alpha: 0.05, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerPts(6, 4, 50)
	hammer(func() {
		m.Patterns()
		m.T()
	}, func() {
		for _, pts := range blocks {
			if _, err := m.AddBlock(pts); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// hammerRecords returns numBlocks small random labelled blocks: class 0
// clustered near x = 0, class 1 near x = 5.
func hammerRecords(seed int64, numBlocks, blockSize int) [][]LabeledRecord {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]LabeledRecord, numBlocks)
	for b := range blocks {
		recs := make([]LabeledRecord, blockSize)
		for i := range recs {
			y := rng.Intn(2)
			recs[i] = LabeledRecord{X: []float64{float64(5*y) + rng.NormFloat64()}, Y: y}
		}
		blocks[b] = recs
	}
	return blocks
}

func TestConcurrentReadersClassifierWindowMiner(t *testing.T) {
	m, err := NewClassifierWindowMiner(ClassifierWindowMinerConfig{NumClasses: 2, WindowSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerRecords(7, 4, 60)
	hammer(func() {
		m.Classifier()
		m.Window()
		m.T()
	}, func() {
		for _, recs := range blocks {
			if err := m.AddBlock(recs); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

func TestConcurrentReadersClassifierMonitor(t *testing.T) {
	m, err := NewClassifierMonitor(ClassifierMonitorConfig{NumClasses: 2, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	blocks := hammerRecords(8, 4, 60)
	hammer(func() {
		m.Patterns()
		m.T()
	}, func() {
		for _, recs := range blocks {
			if _, err := m.AddBlock(recs); err != nil {
				t.Error(err)
				return
			}
		}
	})
}
