package demon

import (
	"math"
	"math/rand"
	"testing"
)

func TestItemsetMinerRules(t *testing.T) {
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Item, 10)
	for i := range rows {
		if i < 8 {
			rows[i] = []Item{1, 2}
		} else {
			rows[i] = []Item{1}
		}
	}
	if _, err := m.AddBlock(rows); err != nil {
		t.Fatal(err)
	}
	rules, err := m.Rules(0.7)
	if err != nil {
		t.Fatal(err)
	}
	// {1}⇒{2} has confidence 0.8; {2}⇒{1} has confidence 1.0.
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	if rules[0].Confidence != 1.0 {
		t.Fatalf("best rule = %v", rules[0])
	}
	if _, err := m.Rules(0); err == nil {
		t.Error("accepted minConf 0")
	}
}

func TestWindowMinerRules(t *testing.T) {
	m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.2, WindowSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Item, 10)
	for i := range rows {
		rows[i] = []Item{3, 4}
	}
	if _, err := m.AddBlock(rows); err != nil {
		t.Fatal(err)
	}
	rules, err := m.Rules(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
}

func TestCompareTransactionBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	mk := func(base Item, n int) [][]Item {
		rows := make([][]Item, n)
		for i := range rows {
			rows[i] = []Item{base, base + 1, base + Item(rng.Intn(3))}
		}
		return rows
	}
	same1, same2 := mk(0, 400), mk(0, 400)
	diff := mk(50, 400)

	cmp, err := CompareTransactionBlocks(same1, same2, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.PValue < 0.01 {
		t.Fatalf("same-process p = %v", cmp.PValue)
	}
	cmp, err = CompareTransactionBlocks(same1, diff, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.PValue > 1e-6 || cmp.Score <= 0 {
		t.Fatalf("different-process comparison = %+v", cmp)
	}
	if len(cmp.TopDifferences) != 3 {
		t.Fatalf("top differences = %d", len(cmp.TopDifferences))
	}
	d0 := math.Abs(cmp.TopDifferences[0].SupportA - cmp.TopDifferences[0].SupportB)
	d1 := math.Abs(cmp.TopDifferences[1].SupportA - cmp.TopDifferences[1].SupportB)
	if d0 < d1 {
		t.Fatal("top differences not sorted")
	}

	if _, err := CompareTransactionBlocks(nil, same1, 0.05, 0); err == nil {
		t.Error("accepted empty block")
	}
}

// TestMonitorsValidateBeforeTheStep: a block the FOCUS deviation cannot take
// — an empty one — is refused before the step begins, so the monitor stays
// usable and the next good block gets the next identifier. (An empty block
// used to be stored by Monitor when it came first, after which every block
// failed.)
func TestMonitorsValidateBeforeTheStep(t *testing.T) {
	type step struct {
		add func() error
		ok  bool
	}
	run := func(t *testing.T, latest func() BlockID, steps []step) {
		t.Helper()
		want := BlockID(0)
		for i, s := range steps {
			if err := s.add(); (err == nil) != s.ok {
				t.Fatalf("step %d: err = %v, want ok = %v", i, err, s.ok)
			}
			if s.ok {
				want++
			}
			if latest() != want {
				t.Fatalf("step %d: T = %d, want %d", i, latest(), want)
			}
		}
	}

	t.Run("Monitor", func(t *testing.T) {
		m, err := NewMonitor(MonitorConfig{MinSupport: 0.3, Alpha: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		rows := sweepTxBlocks(2, 8)
		add := func(rows [][]Item) func() error {
			return func() error { _, err := m.AddBlock(rows); return err }
		}
		run(t, m.T, []step{{add(nil), false}, {add(rows[0]), true}, {add([][]Item{}), false}, {add(rows[1]), true}})
	})
}
