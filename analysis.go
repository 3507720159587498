package demon

import (
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
	ma, err := d.Mine(blkA)
	if err != nil {
		return nil, err
	}
	mb, err := d.Mine(blkB)
	if err != nil {
		return nil, err
	}
	dev, err := d.Deviation(ma, mb)
	if err != nil {
		return nil, err
	}
	cmp := &BlockComparison{Score: dev.Score, PValue: dev.PValue, Regions: dev.Regions}
	if topN > 0 {
		for _, sd := range d.TopDifferences(ma, mb, topN) {
			cmp.TopDifferences = append(cmp.TopDifferences, SupportDifference{
				Itemset:  sd.Itemset,
				SupportA: sd.SupportA,
				SupportB: sd.SupportB,
			})
		}
	}
	return cmp, nil
}
