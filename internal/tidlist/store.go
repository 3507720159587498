package tidlist

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// ErrMissingBlock is a block without an item segment, never materialized or
// dropped; ErrOldLayout one whose item lists are stored one key per item,
// the layout before segments. No block is ever read as empty.
var (
	ErrMissingBlock = errors.New("tidlist: block has no TID-lists")
	ErrOldLayout    = errors.New("tidlist: TID-lists stored one key per item (tid/<id>/i<item>), a layout no longer read; re-ingest the blocks into a fresh store")
)

// Store materializes and serves per-block TID-lists: for every ingested
// block one list per item (ECUT) and, optionally, lists for chosen
// 2-itemsets (ECUT+), each kind one segment (segment.go), written once when
// the block arrives, per the additivity and 0/1 properties.
type Store struct {
	store diskio.Store
	// entriesRead counts TIDs decoded, the paper's "amount of data fetched",
	// and listBytes the bytes of the lists they came from.
	entriesRead, listBytes atomic.Int64
	// passes and sorts recycle the scratch of CountECUT and CountECUTPlus
	// and of Materialize; concurrent invocations each take their own.
	passes, sorts sync.Pool
}

// NewStore wraps a diskio.Store.
func NewStore(store diskio.Store) *Store { return &Store{store: store} }

// itemKey and pairKey are the keys of a block's item and pair segments,
// "tid/<id>" and "tid2/<id>", the block id zero-padded to eight digits.
func itemKey(id blockseq.ID) string { return segmentKey("tid/", id) }

func pairKey(id blockseq.ID) string { return segmentKey("tid2/", id) }

func segmentKey(prefix string, id blockseq.ID) string {
	var buf [32]byte
	return string(id.AppendKey(append(buf[:0], prefix...)))
}

// SetWorkers has no effect: materialization is serial. It is kept for
// benchmark/probes.go.
func (s *Store) SetWorkers(int) {}

// EntriesRead returns the total number of TIDs decoded from storage since
// the store was created or ResetEntriesRead was called.
func (s *Store) EntriesRead() int64 { return s.entriesRead.Load() }

// ListBytesRead returns the encoded bytes of the lists behind EntriesRead;
// the store's own counters see each fetched segment whole.
func (s *Store) ListBytesRead() int64 { return s.listBytes.Load() }

// ResetEntriesRead zeroes the entry and list-byte counters.
func (s *Store) ResetEntriesRead() { s.entriesRead.Store(0); s.listBytes.Store(0) }

// Materialize builds and persists the TID-list θ_Di(x) of every item in the
// block, the paper's single scan: each occurrence is an entry item<<32 | row,
// entered in row order, so a stable radix sort on the items leaves each
// item's rows increasing, and the sorted entries are the item segment.
func (s *Store) Materialize(b *itemset.TxBlock) error {
	sc, ok := s.sorts.Get().(*sortScratch)
	if !ok {
		sc = new(sortScratch)
	}
	defer s.sorts.Put(sc)
	entries, top := sc.entries[:0], uint32(0)
	for row, tx := range b.Txs {
		for _, it := range tx.Items {
			entries = append(entries, uint64(uint32(it))<<32|uint64(row))
		}
		if n := len(tx.Items); n > 0 {
			top = max(top, uint32(tx.Items[n-1]))
		}
	}
	entries, keys, ends := sc.sort(entries, top), sc.keys[:0], sc.ends[:0]
	for i, e := range entries {
		if i+1 == len(entries) || entries[i+1]>>32 != e>>32 {
			keys, ends = append(keys, e>>32), append(ends, i+1)
		}
	}
	sc.keys, sc.ends = keys, ends
	// A gap is one byte for TIDs 128 apart or closer, which most are.
	enc := make([]byte, 0, len(entries)+len(entries)/4+4*len(keys)+16)
	enc = appendSegment(enc, b.FirstTID, keys, ends, entries, math.MaxUint32)
	if err := s.store.Put(itemKey(b.ID), enc); err != nil {
		return fmt.Errorf("tidlist: materializing block %d: %w", b.ID, err)
	}
	return nil
}

// sortScratch is Materialize's arrays, recycled through Store.sorts.
type sortScratch struct {
	entries, tmp, keys []uint64
	ends               []int
}

// sort sorts entries stably by their top 32 bits, at most top, 11 bits a
// pass (one below 2,048, three at MaxInt32) through tmp, and returns them;
// the two buffers stay in sc for the next call.
func (sc *sortScratch) sort(entries []uint64, top uint32) []uint64 {
	const digit = 11
	var at [1 << digit]int
	tmp := slices.Grow(sc.tmp[:0], len(entries))[:len(entries)]
	for shift := 32; shift < 32+bits.Len32(top); shift += digit {
		clear(at[:])
		for _, e := range entries {
			at[e>>shift&(1<<digit-1)]++
		}
		n := 0
		for d, c := range at {
			at[d], n = n, n+c
		}
		for _, e := range entries {
			d := e >> shift & (1<<digit - 1)
			tmp[at[d]] = e
			at[d]++
		}
		entries, tmp = tmp, entries
	}
	sc.entries, sc.tmp = entries, tmp
	return entries
}

// DropBlock deletes block id's item segment and, with pairs, its pair
// segment. Deleting is idempotent.
func (s *Store) DropBlock(id blockseq.ID, pairs bool) error {
	err := s.store.Delete(itemKey(id))
	if err == nil && pairs {
		err = s.store.Delete(pairKey(id))
	}
	if err != nil {
		return fmt.Errorf("tidlist: dropping block %d: %w", id, err)
	}
	return nil
}

// MaterializePairs persists TID-lists for 2-itemsets of the block following
// the ECUT+ heuristic: pairs must be supplied in decreasing overall-support
// order (the caller ranks the frequent 2-itemsets of the current lattice by
// σ_D), and materialization stops when the entry budget M (total TIDs
// stored) would be exceeded. It returns the pairs actually materialized and
// the number of entries used. A negative budget means unlimited. The chosen
// lists, an empty one included, are the block's pair segment, which
// replaces any earlier one; a pair given twice panics.
func (s *Store) MaterializePairs(b *itemset.TxBlock, pairs []itemset.Itemset, budget int64) ([]itemset.Itemset, int64, error) {
	for _, p := range pairs {
		if len(p) != 2 {
			return nil, 0, fmt.Errorf("tidlist: MaterializePairs got %d-itemset %v", len(p), p)
		}
	}
	type entry struct { // a chosen pair's list in lists
		key        uint64
		start, end int
	}
	var used int64
	var chosen []itemset.Itemset
	var lists []uint64 // rows: TIDs less FirstTID
	var dir []entry
	for _, p := range pairs {
		start := len(lists)
		for _, tx := range b.Txs {
			if tx.Contains(p) {
				lists = append(lists, uint64(tx.TID-b.FirstTID))
			}
		}
		if n := int64(len(lists) - start); budget >= 0 && used+n > budget {
			lists = lists[:start]
			continue // paper: choose as many as possible, in support order
		}
		used += int64(len(lists) - start)
		chosen = append(chosen, p)
		dir = append(dir, entry{pairKeyOf(p[0], p[1]), start, len(lists)})
	}
	slices.SortFunc(dir, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	keys, rows, ends := make([]uint64, len(dir)), make([]uint64, 0, len(lists)), make([]int, len(dir))
	for i, e := range dir {
		keys[i], rows = e.key, append(rows, lists[e.start:e.end]...)
		ends[i] = len(rows)
	}
	if err := s.store.Put(pairKey(b.ID), appendSegment(nil, b.FirstTID, keys, ends, rows, math.MaxUint64)); err != nil {
		return nil, 0, fmt.Errorf("tidlist: materializing the pairs of block %d: %w", b.ID, err)
	}
	return chosen, used, nil
}

// segment fetches block id's item or pair segment. A missing pair segment
// is no pairs (nil, nil), a missing item segment an error.
func (s *Store) segment(id blockseq.ID, pairs bool) ([]byte, error) {
	key := itemKey(id)
	if pairs {
		key = pairKey(id)
	}
	data, err := s.store.Get(key)
	switch {
	case err == nil:
		return data, nil
	case !errors.Is(err, diskio.ErrNotFound):
		return nil, err
	case pairs:
		return nil, nil
	}
	if old, err := s.store.Keys(key + "/"); err != nil || len(old) > 0 {
		return nil, cmp.Or(err, ErrOldLayout)
	}
	return nil, ErrMissingBlock
}

// find reads the list keyed key from block id's item or pair segment,
// reporting ok=false when the segment has none.
func (s *Store) find(id blockseq.ID, pairs bool, key uint64) (l List, ok bool, err error) {
	data, err := s.segment(id, pairs)
	if err == nil && data != nil {
		var v view
		if err = v.locate(data, pairs, []uint64{key}); err == nil && v.spans[0].ok {
			_, l, err = s.decode(nil, &v, 0)
			ok = err == nil
		}
	}
	if err != nil {
		return nil, false, fmt.Errorf("tidlist: block %d: %w", id, err)
	}
	return l, ok, nil
}

// ItemList reads θ_Di(x): empty for an item absent from the block, an
// error for a block without lists or a storage failure.
func (s *Store) ItemList(id blockseq.ID, it itemset.Item) (List, error) {
	l, _, err := s.find(id, false, uint64(it))
	return l, err
}

// PairList reads the materialized list of a 2-itemset, reporting ok=false
// when that pair was not materialized for the block.
func (s *Store) PairList(id blockseq.ID, pair itemset.Itemset) (List, bool, error) {
	return s.find(id, true, pairKeyOf(pair[0], pair[1]))
}
