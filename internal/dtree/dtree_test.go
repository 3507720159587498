package dtree

import (
	"math/rand"
	"testing"
)

// twoBlobs generates a linearly separable two-class problem.
func twoBlobs(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		if i%2 == 0 {
			recs[i] = Record{X: []float64{rng.NormFloat64() + 3, rng.NormFloat64()}, Y: 0}
		} else {
			recs[i] = Record{X: []float64{rng.NormFloat64() - 3, rng.NormFloat64()}, Y: 1}
		}
	}
	return recs
}

// xorData generates the classic XOR problem: requires depth ≥ 2.
func xorData(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		x := rng.Float64()*2 - 1
		y := rng.Float64()*2 - 1
		label := 0
		if (x > 0) != (y > 0) {
			label = 1
		}
		recs[i] = Record{X: []float64{x, y}, Y: label}
	}
	return recs
}

func TestBuildSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := twoBlobs(rng, 400)
	tree, err := Build(recs, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := tree.Accuracy(recs)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.98 {
		t.Fatalf("training accuracy %v on separable data", acc)
	}
	// Generalization.
	test := twoBlobs(rng, 200)
	acc, err = tree.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("test accuracy %v on separable data", acc)
	}
}

func TestBuildXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := xorData(rng, 800)
	tree, err := Build(recs, 2, Config{MaxDepth: 6, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := tree.Accuracy(recs)
	if err != nil {
		t.Fatal(err)
	}
	// XOR has zero first-split gain; the tree must keep splitting through
	// the plateau (a noisy first cut costs a couple of extra levels).
	if acc < 0.95 {
		t.Fatalf("XOR accuracy %v at depth 6", acc)
	}
	if tree.NumLeaves() < 4 {
		t.Fatalf("XOR tree has %d leaves, want ≥ 4", tree.NumLeaves())
	}
}

func TestPureDataSingleLeaf(t *testing.T) {
	recs := []Record{
		{X: []float64{0}, Y: 1},
		{X: []float64{1}, Y: 1},
		{X: []float64{2}, Y: 1},
	}
	tree, err := Build(recs, 2, Config{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 1 {
		t.Fatalf("pure data produced %d leaves", tree.NumLeaves())
	}
	c, err := tree.Predict([]float64{5})
	if err != nil || c != 1 {
		t.Fatalf("Predict = %d, %v", c, err)
	}
}

func TestLeafPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := twoBlobs(rng, 300)
	tree, err := Build(recs, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every record lands in exactly one leaf with a valid dense id.
	seen := make(map[int]bool)
	for _, r := range recs {
		id, err := tree.Leaf(r.X)
		if err != nil {
			t.Fatal(err)
		}
		if id < 0 || id >= tree.NumLeaves() {
			t.Fatalf("leaf id %d outside [0, %d)", id, tree.NumLeaves())
		}
		seen[id] = true
	}
	if len(seen) == 0 {
		t.Fatal("no leaves used")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 2, Config{}); err == nil {
		t.Error("accepted empty training set")
	}
	recs := []Record{{X: []float64{1}, Y: 0}}
	if _, err := Build(recs, 1, Config{}); err == nil {
		t.Error("accepted single-class problem")
	}
	if _, err := Build([]Record{{X: []float64{1}, Y: 5}}, 2, Config{}); err == nil {
		t.Error("accepted out-of-range label")
	}
	if _, err := Build([]Record{{X: []float64{1}, Y: 0}, {X: []float64{1, 2}, Y: 1}}, 2, Config{}); err == nil {
		t.Error("accepted ragged attributes")
	}
	if _, err := Build(recs, 2, Config{MaxDepth: -1}); err == nil {
		t.Error("accepted negative depth")
	}
	tree, err := Build([]Record{{X: []float64{0}, Y: 0}, {X: []float64{1}, Y: 1}}, 2, Config{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1, 2}); err == nil {
		t.Error("Predict accepted wrong dimension")
	}
	if _, err := tree.Leaf([]float64{1, 2}); err == nil {
		t.Error("Leaf accepted wrong dimension")
	}
	if _, err := tree.Accuracy(nil); err == nil {
		t.Error("Accuracy accepted empty set")
	}
}

func TestDifferSameProcessSimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := &LabeledBlock{ID: 1, Records: twoBlobs(rng, 600), NumClasses: 2}
	b := &LabeledBlock{ID: 2, Records: twoBlobs(rng, 600), NumClasses: 2}
	d := Differ{}
	dev, err := d.Deviation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if dev.PValue < 0.01 {
		t.Fatalf("same-process blocks dissimilar: %+v", dev)
	}
	if dev.Score > 0.15 {
		t.Fatalf("same-process score %v too large", dev.Score)
	}
}

func TestDifferDifferentProcessDissimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := &LabeledBlock{ID: 1, Records: twoBlobs(rng, 600), NumClasses: 2}
	// Flip the labels: same marginal distribution of X, opposite concept.
	flipped := twoBlobs(rng, 600)
	for i := range flipped {
		flipped[i].Y = 1 - flipped[i].Y
	}
	b := &LabeledBlock{ID: 2, Records: flipped, NumClasses: 2}
	d := Differ{}
	dev, err := d.Deviation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if dev.PValue >= 0.01 {
		t.Fatalf("concept-flipped blocks similar: %+v", dev)
	}
	if dev.PValue > 1e-6 {
		t.Fatalf("concept-flipped p = %v", dev.PValue)
	}
	if dev.Score < 0.5 {
		t.Fatalf("concept-flipped score = %v, want large", dev.Score)
	}
}

func TestDifferValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := &LabeledBlock{ID: 1, Records: twoBlobs(rng, 100), NumClasses: 2}
	empty := &LabeledBlock{ID: 2, NumClasses: 2}
	d := Differ{}
	if _, err := d.Deviation(a, empty); err == nil {
		t.Error("accepted empty block")
	}
	mismatch := &LabeledBlock{ID: 3, Records: twoBlobs(rng, 100), NumClasses: 3}
	if _, err := d.Deviation(a, mismatch); err == nil {
		t.Error("accepted class arity mismatch")
	}
}

func TestDifferSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := &LabeledBlock{ID: 1, Records: twoBlobs(rng, 300), NumClasses: 2}
	b := &LabeledBlock{ID: 2, Records: xorData(rng, 300), NumClasses: 2}
	d := Differ{}
	ab, err := d.Deviation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := d.Deviation(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ab.Score - ba.Score; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("score asymmetric: %v vs %v", ab.Score, ba.Score)
	}
}
