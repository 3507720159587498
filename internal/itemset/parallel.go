package itemset

import "github.com/demon-mining/demon/internal/par"

// ParallelPrefixCount counts the candidates over txs — the PT-Scan inner loop
// — and returns the counts by candidate position. The transactions are
// sharded into contiguous ranges across workers, each shard counting into its
// own vector over one shared prefix tree; support counts are additive over
// disjoint transaction sets (the Section 3.1.1 additivity property), so the
// sum of the vectors is identical to a serial pass for every worker count.
// With one worker (or few transactions) no goroutine is spawned.
func ParallelPrefixCount(cands []Itemset, txs []Transaction, workers int) []int {
	tree := NewPrefixTree(nil)
	nodes := make([]int32, len(cands))
	for i, c := range cands {
		nodes[i], _ = tree.Insert(c)
	}
	vecs := make([][]int, max(par.Shards(len(txs), workers), 1))
	par.Do(len(txs), workers, func(shard, lo, hi int) {
		vecs[shard] = make([]int, tree.Cap())
		for _, tx := range txs[lo:hi] {
			tree.CountInto(vecs[shard], tx)
		}
	})
	out := make([]int, len(cands))
	for _, vec := range vecs {
		if vec == nil {
			continue // no transactions: the one shard never ran
		}
		for i, n := range nodes {
			out[i] += vec[n]
		}
	}
	return out
}
