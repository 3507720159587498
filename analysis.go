package demon

import (
	"context"
	"fmt"

	"github.com/demon-mining/demon/internal/dtree"
	"github.com/demon-mining/demon/internal/durable"
	"github.com/demon-mining/demon/internal/focus"
	"github.com/demon-mining/demon/internal/itemset"
)

// Rule is an association rule X ⇒ Y with support, confidence and lift.
type Rule = itemset.Rule

// Rules derives the association rules meeting the confidence threshold from
// the miner's current frequent itemsets; no data access is needed.
// Safe to call concurrently with AddBlock.
func (m *ItemsetMiner) Rules(minConf float64) ([]Rule, error) {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.model.Rules(minConf)
}

// Rules derives the association rules of the current window's model.
// Safe to call concurrently with AddBlock.
func (m *ItemsetWindowMiner) Rules(minConf float64) ([]Rule, error) {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.g.Current().Rules(minConf)
}

// BlockComparison is the result of comparing two blocks through the FOCUS
// deviation framework.
type BlockComparison struct {
	// Score is the deviation δ (0 = identical models).
	Score float64
	// PValue is the probability both blocks come from the same process.
	PValue float64
	// Regions is the size of the common structural component.
	Regions int
	// TopDifferences lists the itemsets with the largest support gap,
	// largest first — the interpretable explanation of the deviation.
	TopDifferences []SupportDifference
}

// SupportDifference is one region of the common structural component with
// its measure in each block.
type SupportDifference struct {
	Itemset  Itemset
	SupportA float64
	SupportB float64
}

// CompareTransactionBlocks computes the FOCUS frequent-itemset deviation
// between two blocks of transactions at the given mining threshold, with up
// to topN explaining itemsets (pass 0 for none).
func CompareTransactionBlocks(a, b [][]Item, minsup float64, topN int) (*BlockComparison, error) {
	blkA := itemset.NewTxBlock(1, 0, a)
	blkB := itemset.NewTxBlock(2, len(a), b)
	d := focus.ItemsetDiffer{MinSupport: minsup}
	dev, err := d.Deviation(blkA, blkB)
	if err != nil {
		return nil, err
	}
	cmp := &BlockComparison{Score: dev.Score, PValue: dev.PValue, Regions: dev.Regions}
	if topN > 0 {
		diffs, err := d.TopDifferences(blkA, blkB, topN)
		if err != nil {
			return nil, err
		}
		for _, sd := range diffs {
			cmp.TopDifferences = append(cmp.TopDifferences, SupportDifference{
				Itemset:  sd.Itemset,
				SupportA: sd.SupportA,
				SupportB: sd.SupportB,
			})
		}
	}
	return cmp, nil
}

// LabeledRecord is one classified example for the classifier monitor.
type LabeledRecord struct {
	// X holds the numeric attribute values.
	X []float64
	// Y is the class label in [0, NumClasses).
	Y int
}

// ClassifierMonitorConfig configures a ClassifierMonitor.
type ClassifierMonitorConfig struct {
	// NumClasses is the label arity of the blocks.
	NumClasses int
	// Alpha is the similarity significance level.
	Alpha float64
	// Window optionally restricts detection to the most recent blocks.
	Window int
	// MaxDepth / MinLeaf tune the per-block decision trees (zero = library
	// defaults).
	MaxDepth, MinLeaf int
}

// ClassifierMonitor discovers compact sequences of blocks whose induced
// decision-tree classifiers agree — the FOCUS deviation instantiated with
// the third model class of Section 4 (decision trees): two blocks are
// similar when the class distributions over the overlay of their trees' leaf
// partitions cannot be told apart.
type ClassifierMonitor struct {
	// The core runs AddBlock and makes readers (Patterns, T) safe
	// concurrently with it.
	monitor[*dtree.LabeledBlock]
	numClasses int
}

// NewClassifierMonitor creates a monitor over an empty database.
func NewClassifierMonitor(cfg ClassifierMonitorConfig) (*ClassifierMonitor, error) {
	if cfg.NumClasses < 2 {
		return nil, fmt.Errorf("demon: classifier monitor needs at least 2 classes, got %d", cfg.NumClasses)
	}
	differ := dtree.Differ{Tree: dtree.Config{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}}
	core, err := newMonitor[*dtree.LabeledBlock](differ, cfg.Alpha, cfg.Window, durable.Config{})
	if err != nil {
		return nil, err
	}
	return &ClassifierMonitor{core, cfg.NumClasses}, nil
}

// AddBlock ingests the next block of labelled records, which must be
// non-empty with every label in range; an error once the step has begun
// leaves the monitor unusable.
func (m *ClassifierMonitor) AddBlock(records []LabeledRecord) (*MonitorReport, error) {
	recs := make([]dtree.Record, len(records))
	for i, r := range records {
		if r.Y < 0 || r.Y >= m.numClasses {
			return nil, fmt.Errorf("demon: record %d has label %d outside [0, %d)", i, r.Y, m.numClasses)
		}
		recs[i] = dtree.Record{X: r.X, Y: r.Y}
	}
	return m.addBlock(context.Background(), nil, len(recs), func(id BlockID) (*dtree.LabeledBlock, error) {
		return &dtree.LabeledBlock{ID: id, Records: recs, NumClasses: m.numClasses}, nil
	})
}
