package borders

import (
	"fmt"
	"slices"

	"github.com/demon-mining/demon/internal/itemset"
)

// CheckIndex verifies the structure a model's index must have between
// maintenance steps: every node below the root is a tracked set that the tree
// finds under its itemset, the tree holds nothing else, no class is left
// fresh, the frequent-node list is the tree-order list of the frequent nodes,
// and the detection vectors are zero.
func (m *Model) CheckIndex() error {
	ix := m.ix
	tracked := 0
	for n, cl := range ix.class {
		if cl == untracked {
			continue
		}
		tracked++
		if x := ix.tree.Itemset(int32(n), nil); cl == fresh || ix.tree.Lookup(x, -1) != int32(n) {
			return fmt.Errorf("borders: index node %d (class %d) is not the tree's node for %v", n, cl, x)
		}
	}
	if tracked != ix.tree.Size() {
		return fmt.Errorf("borders: index tracks %d sets in a tree of %d", tracked, ix.tree.Size())
	}
	var inOrder []int32
	ix.tree.Walk(func(n int32, _ itemset.Itemset) {
		if ix.class[n] == frequent {
			inOrder = append(inOrder, n)
		}
	})
	if !slices.Equal(inOrder, ix.frequent) {
		return fmt.Errorf("borders: frequent-node list %v, the tree's frequent nodes in order are %v", ix.frequent, inOrder)
	}
	for _, d := range ix.deltas {
		for n, c := range d {
			if c != 0 {
				return fmt.Errorf("borders: detection vector holds %d at node %d between steps", c, n)
			}
		}
	}
	return nil
}
