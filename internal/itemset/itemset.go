// Package itemset provides the frequent-itemset fundamentals DEMON builds on:
// items, itemsets, transactions, support counting, the negative border, the
// Apriori algorithm (the from-scratch baseline), and the two candidate
// counting structures the paper references — the prefix tree of Mueller
// (PT-Scan, the counting procedure of the BORDERS update phase) and the hash
// tree of Agrawal et al. (footnote 7).
package itemset

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Item is a literal from the item universe I = {i1, ..., in}. Items are
// small non-negative integers.
type Item int32

// Itemset is a set of items, maintained sorted in increasing order with no
// duplicates. The zero value is the empty itemset.
type Itemset []Item

// NewItemset builds a canonical (sorted, deduplicated) itemset from items in
// any order.
func NewItemset(items ...Item) Itemset { return canonical(slices.Clone(items)) }

// Len returns the number of items; the paper calls a set of size k a
// k-itemset.
func (s Itemset) Len() int { return len(s) }

// Contains reports whether the itemset includes item.
func (s Itemset) Contains(item Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= item })
	return i < len(s) && s[i] == item
}

// SubsetOf reports whether s ⊆ t. Both must be canonical.
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j >= len(t) || t[j] != x {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether two canonical itemsets contain the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns the canonical union s ∪ t.
func (s Itemset) Union(t Itemset) Itemset {
	out := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Without returns a new itemset with the item at index idx removed; it is the
// (len-1)-subset used when enumerating proper subsets for Apriori pruning.
func (s Itemset) Without(idx int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:idx]...)
	out = append(out, s[idx+1:]...)
	return out
}

// Clone returns an independent copy.
func (s Itemset) Clone() Itemset {
	if s == nil {
		return nil
	}
	out := make(Itemset, len(s))
	copy(out, s)
	return out
}

// Key returns a byte-string key usable in maps, unique per canonical itemset.
func (s Itemset) Key() Key {
	buf := make([]byte, 0, len(s)*3)
	for _, it := range s {
		buf = binary.AppendUvarint(buf, uint64(it))
	}
	return Key(buf)
}

// String renders the itemset as {a, b, c}.
func (s Itemset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", it)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Key is the map-key form of a canonical itemset produced by Itemset.Key.
type Key string

// Itemset decodes the key back into the itemset it was built from.
func (k Key) Itemset() Itemset {
	buf := []byte(k)
	var s Itemset
	for len(buf) > 0 {
		x, n := binary.Uvarint(buf)
		if n <= 0 {
			panic("itemset: corrupt Key")
		}
		s = append(s, Item(x))
		buf = buf[n:]
	}
	return s
}

// PrefixJoin implements the candidate generation join of Agrawal et al.
// (AMS+96), as used by both Apriori and the BORDERS update phase: two
// k-itemsets sharing their first k-1 items join into a (k+1)-itemset. The
// input must be a set of canonical k-itemsets; the output is the sorted list
// of joined candidates before subset pruning.
func PrefixJoin(sets []Itemset) []Itemset {
	if len(sets) == 0 {
		return nil
	}
	k := len(sets[0])
	sorted := slices.Clone(sets)
	SortItemsets(sorted)
	var out []Itemset
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			a, b := sorted[i], sorted[j]
			if len(a) != k || len(b) != k {
				panic("itemset: PrefixJoin requires uniform sizes")
			}
			if !samePrefix(a, b, k-1) {
				break // sorted order: no later b shares the prefix either
			}
			cand := make(Itemset, k+1)
			copy(cand, a)
			cand[k] = b[k-1]
			out = append(out, cand)
		}
	}
	return out
}

// PruneByFrequent removes candidates having any (k-1)-subset absent from the
// frequent set, the standard Apriori prune. frequent maps the keys of all
// frequent itemsets of size k.
func PruneByFrequent(cands []Itemset, frequent map[Key]bool) []Itemset {
	out := cands[:0]
	var key []byte // the subset's key, rebuilt in place: no Without, no Key
	for _, c := range cands {
		ok := true
		for skip := range c {
			key = key[:0]
			for i, it := range c {
				if i != skip {
					key = binary.AppendUvarint(key, uint64(it))
				}
			}
			if !frequent[Key(key)] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

func samePrefix(a, b Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CompareItemsets orders itemsets lexicographically, a proper prefix before
// the sets it prefixes: negative when a sorts first, zero when equal.
func CompareItemsets(a, b Itemset) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// SortItemsets orders itemsets by CompareItemsets, a stable order for
// deterministic output.
func SortItemsets(sets []Itemset) { slices.SortFunc(sets, CompareItemsets) }
