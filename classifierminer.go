package demon

import (
	"fmt"

	"github.com/demon-mining/demon/internal/dtree"
)

// recordsModel is the GEMM model for decision-tree classifiers: the labelled
// records of the blocks the (projected or right-shifted) BSS selected. A
// tree is induced on demand. Decision trees are not incrementally
// maintainable under deletions either, so — like BIRCH sub-clusters — they
// are a natural fit for GEMM's insert-only model collection.
type recordsModel struct {
	records []dtree.Record
}

type recordsMaintainer struct{}

func (recordsMaintainer) Empty(*recordsModel) *recordsModel { return &recordsModel{} }

func (recordsMaintainer) Add(m *recordsModel, blk []dtree.Record) (*recordsModel, error) {
	m.records = append(m.records, blk...)
	return m, nil
}

// ClassifierWindowMinerConfig configures a ClassifierWindowMiner.
type ClassifierWindowMinerConfig struct {
	// NumClasses is the label arity.
	NumClasses int
	// WindowSize is the number of most recent blocks the classifier is
	// trained over (required unless WindowRelBSS is set).
	WindowSize int
	// BSS optionally restricts the window-independent selection.
	BSS BSS
	// WindowRelBSS optionally gives a window-relative selection.
	WindowRelBSS WindowRelBSS
	// MaxDepth / MinLeaf tune tree induction (zero = defaults).
	MaxDepth, MinLeaf int
}

// ClassifierWindowMiner maintains a decision-tree classifier over the most
// recent window of labelled blocks with respect to a BSS — GEMM instantiated
// with the decision-tree model class, completing the paper's Figure 11
// problem space for the third model family.
type ClassifierWindowMiner struct {
	// The core runs AddBlock and makes readers (Classifier, Window, T) safe
	// concurrently with it.
	windowMiner[[]dtree.Record, *recordsModel]
	cfg ClassifierWindowMinerConfig
}

// NewClassifierWindowMiner creates a window miner over an empty database.
func NewClassifierWindowMiner(cfg ClassifierWindowMinerConfig) (*ClassifierWindowMiner, error) {
	if cfg.NumClasses < 2 {
		return nil, fmt.Errorf("demon: classifier window miner needs at least 2 classes, got %d", cfg.NumClasses)
	}
	core, err := newWindowMiner[[]dtree.Record, *recordsModel](recordsMaintainer{}, cfg.WindowSize, cfg.BSS, cfg.WindowRelBSS, 0)
	if err != nil {
		return nil, err
	}
	return &ClassifierWindowMiner{core, cfg}, nil
}

// AddBlock appends the next block of labelled records. Labels are validated
// before the step; an error once it has begun leaves the miner unusable.
func (m *ClassifierWindowMiner) AddBlock(records []LabeledRecord) error {
	blk := make([]dtree.Record, len(records))
	for i, r := range records {
		if r.Y < 0 || r.Y >= m.cfg.NumClasses {
			return fmt.Errorf("demon: record %d has label %d outside [0, %d)", i, r.Y, m.cfg.NumClasses)
		}
		x := make([]float64, len(r.X))
		copy(x, r.X)
		blk[i] = dtree.Record{X: x, Y: r.Y}
	}
	return m.addBlock(blk)
}

// Classifier trains and returns the decision tree over the current window's
// selected blocks. It errors when the selection is empty.
func (m *ClassifierWindowMiner) Classifier() (*Classifier, error) {
	m.sh.RLock()
	defer m.sh.RUnlock()
	cur := m.g.Current()
	if len(cur.records) == 0 {
		return nil, fmt.Errorf("demon: current window selects no records")
	}
	tree, err := dtree.Build(cur.records, m.cfg.NumClasses, dtree.Config{
		MaxDepth: m.cfg.MaxDepth,
		MinLeaf:  m.cfg.MinLeaf,
	})
	if err != nil {
		return nil, err
	}
	return &Classifier{tree: tree}, nil
}

// Classifier is a trained decision tree.
type Classifier struct {
	tree *dtree.Tree
}

// Predict returns the predicted class of a point.
func (c *Classifier) Predict(x []float64) (int, error) { return c.tree.Predict(x) }

// Accuracy returns the fraction of records classified correctly.
func (c *Classifier) Accuracy(records []LabeledRecord) (float64, error) {
	rs := make([]dtree.Record, len(records))
	for i, r := range records {
		rs[i] = dtree.Record{X: r.X, Y: r.Y}
	}
	return c.tree.Accuracy(rs)
}

// NumLeaves returns the number of leaf regions of the tree.
func (c *Classifier) NumLeaves() int { return c.tree.NumLeaves() }
