// Package tidlist implements the TID-list substrate of Section 3.1.1 of the
// DEMON paper: the TID-list θ_D(X) of an itemset X is the sorted list of
// identifiers of transactions containing X. Two properties of systematic
// block evolution let the lists be partitioned per block and frozen at block
// ingestion time — additivity (the support over a window is the sum of
// per-block supports) and the 0/1 property (a BSS selects whole blocks, never
// fractions) — and that is exactly what the ECUT and ECUT+ counting
// strategies exploit.
package tidlist

import "slices"

// List is a TID-list: transaction identifiers sorted in increasing order.
type List []int

// Intersect merges two sorted lists, returning their intersection — the
// merge phase of a sort-merge join, as the paper describes.
func Intersect(a, b List) List { return intersectInto(nil, a, b) }

// intersectInto appends a ∩ b to out.
func intersectInto(out, a, b List) List {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// IntersectCount returns |a ∩ b| without materializing the intersection.
func IntersectCount(a, b List) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// pairCounter counts |a ∩ b| for a run of pairs that share a list, the shape
// an update phase produces (one newly frequent item against every frequent
// item): the shared list is spread into a bitmap once and the other list only
// probes it, where the sort-merge would walk the shared list again per pair.
type pairCounter struct {
	of   *int // first entry of the list in bits, which this keeps alive: its identity
	base int
	bits []uint64
}

func (p *pairCounter) count(a, b List) int {
	if p.of == &b[0] {
		a, b = b, a
	}
	span := a[len(a)-1] - a[0] + 1
	if span <= 0 || span > 64*(len(a)+len(b)) {
		return IntersectCount(a, b) // sparse TIDs: the bitmap would cost more than the merge
	}
	if p.of != &a[0] {
		p.of, p.base = &a[0], a[0]
		p.bits = slices.Grow(p.bits[:0], (span+63)/64)[:(span+63)/64]
		clear(p.bits)
		for _, t := range a {
			p.bits[(t-p.base)>>6] |= 1 << ((t - p.base) & 63)
		}
	}
	n := 0
	for _, t := range b {
		if d := uint(t - p.base); d>>6 < uint(len(p.bits)) {
			n += int(p.bits[d>>6] >> (d & 63) & 1)
		}
	}
	return n
}

// IntersectManyCount returns |l1 ∩ ... ∩ lk| for k sorted lists without
// keeping the intersection. Lists are processed smallest first — lists is
// reordered in place — so intermediate results shrink as fast as possible;
// they are written over scratch, which is returned for reuse, and the last
// pair is only counted. The lists' own entries are never written. Zero lists
// count zero (callers guard against it), as does any empty list.
func IntersectManyCount(lists []List, scratch List) (int, List) {
	if len(lists) == 0 {
		return 0, scratch
	}
	for i := 1; i < len(lists); i++ { // insertion sort: k is a handful
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	acc := lists[0]
	for i := 1; i < len(lists) && len(acc) > 0; i++ {
		if i == len(lists)-1 {
			return IntersectCount(acc, lists[i]), scratch
		}
		// Writing over scratch is safe even when acc is scratch: the merge
		// never writes past the entry of acc it is reading.
		scratch = intersectInto(scratch[:0], acc, lists[i])
		acc = scratch
	}
	return len(acc), scratch
}
