package tidlist

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/par"
)

// Store materializes and serves per-block TID-lists. For every ingested
// block it holds one list per item (the ECUT organization) and, optionally,
// lists for a chosen set of 2-itemsets (the ECUT+ materialization). Lists
// are written once when the block arrives and never modified, per the
// additivity and 0/1 properties.
type Store struct {
	store diskio.Store
	// pairMu guards pairIndex; the parallel counters read through one Store
	// concurrently.
	pairMu sync.Mutex
	// pairIndex caches, per block, the set of materialized 2-itemset keys.
	pairIndex map[blockseq.ID]map[itemset.Key]bool
	// entriesRead counts TIDs decoded from storage, the paper's "amount of
	// data fetched" cost metric.
	entriesRead atomic.Int64
	// workers is the pair-materialization worker knob; see SetWorkers.
	workers int
	// passes recycles the counting state of CountECUT and CountECUTPlus;
	// concurrent invocations each take their own.
	passes sync.Pool
}

// NewStore wraps a diskio.Store.
func NewStore(store diskio.Store) *Store {
	return &Store{store: store, pairIndex: make(map[blockseq.ID]map[itemset.Key]bool)}
}

// The store keys, built without fmt: "tid/<id>/i<item>", "tid2/<id>/p<a>-<b>"
// and "tid2idx/<id>", the block id zero-padded to eight digits.

func itemKey(id blockseq.ID, it itemset.Item) string {
	return string(appendItemKey(make([]byte, 0, 32), id, it))
}

func appendItemKey(buf []byte, id blockseq.ID, it itemset.Item) []byte {
	buf = id.AppendKey(append(buf, "tid/"...))
	buf = append(buf, "/i"...)
	return strconv.AppendInt(buf, int64(it), 10)
}

func pairKey(id blockseq.ID, pair itemset.Itemset) string {
	buf := id.AppendKey(append(make([]byte, 0, 48), "tid2/"...))
	buf = append(buf, "/p"...)
	buf = strconv.AppendInt(buf, int64(pair[0]), 10)
	buf = append(buf, '-')
	return string(strconv.AppendInt(buf, int64(pair[1]), 10))
}

func pairIdxKey(id blockseq.ID) string {
	return string(id.AppendKey(append(make([]byte, 0, 24), "tid2idx/"...)))
}

// SetWorkers sets the worker count MaterializePairs shards its per-pair scan
// and encode work across: non-positive selects GOMAXPROCS, 1 keeps it
// serial. Writes stay serial and ordered regardless, so the stored bytes are
// identical to the serial path for every worker count. Materialize is one
// serial pass. SetWorkers must not be called concurrently with
// materialization.
func (s *Store) SetWorkers(n int) { s.workers = n }

// EntriesRead returns the total number of TIDs decoded from storage since
// the store was created or ResetEntriesRead was called.
func (s *Store) EntriesRead() int64 { return s.entriesRead.Load() }

// ResetEntriesRead zeroes the entry counter.
func (s *Store) ResetEntriesRead() { s.entriesRead.Store(0) }

// Materialize builds and persists the TID-list θ_Di(x) of every item
// occurring in the block: the single scan of the paper, over flat arrays. A
// first pass counts each item's occurrences, one sort puts the items in
// order, a second pass drops every TID into its item's run of one TID array
// (TIDs increase with transaction index, so each run comes out sorted), and
// the runs are encoded into one buffer and written, in item order, under keys
// cut from one string.
func (s *Store) Materialize(b *itemset.TxBlock) error {
	occurrences, maxItem := 0, 0
	for _, tx := range b.Txs {
		if n := len(tx.Items); n > 0 {
			occurrences += n
			maxItem = max(maxItem, int(tx.Items[n-1]))
		}
	}
	// An item's run in tids, and where its key ends in keys.
	type run struct {
		item         itemset.Item
		n, next, key int
	}
	hint := min(occurrences, maxItem+1) // a bound on the distinct items
	slotOf := make(map[itemset.Item]int32, hint)
	runs := make([]run, 0, hint) // by slot, in order of first occurrence
	slots := make([]int32, 0, occurrences)
	for _, tx := range b.Txs {
		for _, it := range tx.Items {
			slot, ok := slotOf[it]
			if !ok {
				slot = int32(len(runs))
				slotOf[it] = slot
				runs = append(runs, run{item: it})
			}
			runs[slot].n++
			slots = append(slots, slot)
		}
	}
	order := make([]int32, len(runs)) // slots by item
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(runs[a].item, runs[b].item) })
	at := 0
	for _, slot := range order {
		runs[slot].next = at
		at += runs[slot].n
	}
	tids := make([]int, occurrences)
	k := 0
	for _, tx := range b.Txs {
		for range tx.Items {
			r := &runs[slots[k]]
			tids[r.next] = tx.TID
			r.next++
			k++
		}
	}
	keyBuf := make([]byte, 0, 32*len(runs))
	for _, slot := range order {
		keyBuf = appendItemKey(keyBuf, b.ID, runs[slot].item)
		runs[slot].key = len(keyBuf)
	}
	keys := string(keyBuf)
	// A gap is one byte for TIDs 128 apart or closer, which most are.
	enc := make([]byte, 0, occurrences+occurrences/4+3*len(runs))
	keyAt := 0
	for _, slot := range order {
		r := runs[slot]
		start := len(enc)
		enc = diskio.AppendSortedInts(enc, tids[r.next-r.n:r.next])
		if err := s.store.Put(keys[keyAt:r.key], enc[start:len(enc):len(enc)]); err != nil {
			return fmt.Errorf("tidlist: materializing block %d item %d: %w", b.ID, r.item, err)
		}
		keyAt = r.key
	}
	return nil
}

// MaterializePairs persists TID-lists for 2-itemsets of the block following
// the ECUT+ heuristic: pairs must be supplied in decreasing overall-support
// order (the caller ranks the frequent 2-itemsets of the current lattice by
// σ_D), and materialization stops when the entry budget M (total TIDs
// stored) would be exceeded. It returns the pairs actually materialized and
// the number of entries used. A negative budget means unlimited.
// The per-pair block scans and list encodes are sharded across the
// configured workers; the budget decisions and writes run serially in pair
// order afterwards, so the chosen set and stored bytes are identical to the
// serial path for every worker count.
func (s *Store) MaterializePairs(b *itemset.TxBlock, pairs []itemset.Itemset, budget int64) ([]itemset.Itemset, int64, error) {
	for _, p := range pairs {
		if len(p) != 2 {
			return nil, 0, fmt.Errorf("tidlist: MaterializePairs got %d-itemset %v", len(p), p)
		}
	}
	lengths := make([]int, len(pairs))
	encoded := make([][]byte, len(pairs))
	par.Do(len(pairs), s.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var list List
			for _, tx := range b.Txs {
				if tx.Contains(pairs[i]) {
					list = append(list, tx.TID)
				}
			}
			lengths[i] = len(list)
			encoded[i] = diskio.AppendSortedInts(nil, list)
		}
	})
	idx := make(map[itemset.Key]bool)
	var used int64
	var chosen []itemset.Itemset
	for i, p := range pairs {
		if budget >= 0 && used+int64(lengths[i]) > budget {
			continue // paper: choose as many as possible, in support order
		}
		if err := s.store.Put(pairKey(b.ID, p), encoded[i]); err != nil {
			return nil, 0, fmt.Errorf("tidlist: materializing pair %v: %w", p, err)
		}
		used += int64(lengths[i])
		idx[p.Key()] = true
		chosen = append(chosen, p)
	}
	// Persist the pair index so a fresh Store over the same diskio.Store can
	// discover what is materialized.
	var enc []byte
	enc = diskio.AppendUvarint(enc, uint64(len(chosen)))
	for _, p := range chosen {
		enc = diskio.AppendUvarint(enc, uint64(p[0]))
		enc = diskio.AppendUvarint(enc, uint64(p[1]))
	}
	if err := s.store.Put(pairIdxKey(b.ID), enc); err != nil {
		return nil, 0, fmt.Errorf("tidlist: writing pair index: %w", err)
	}
	s.pairMu.Lock()
	s.pairIndex[b.ID] = idx
	s.pairMu.Unlock()
	return chosen, used, nil
}

// loadPairIndex fetches (and caches) the pair index of a block; a missing
// index means no pairs were materialized.
func (s *Store) loadPairIndex(id blockseq.ID) (map[itemset.Key]bool, error) {
	s.pairMu.Lock()
	defer s.pairMu.Unlock()
	if idx, ok := s.pairIndex[id]; ok {
		return idx, nil
	}
	idx := make(map[itemset.Key]bool)
	data, err := s.store.Get(pairIdxKey(id))
	if err != nil && !errors.Is(err, diskio.ErrNotFound) {
		return nil, fmt.Errorf("tidlist: pair index of block %d: %w", id, err)
	}
	if err == nil {
		n, rest, derr := diskio.ReadUvarint(data)
		if derr != nil {
			return nil, fmt.Errorf("tidlist: pair index of block %d: %w", id, derr)
		}
		data = rest
		for i := uint64(0); i < n; i++ {
			a, rest, derr := diskio.ReadUvarint(data)
			if derr != nil {
				return nil, fmt.Errorf("tidlist: pair index of block %d: %w", id, derr)
			}
			b, rest2, derr := diskio.ReadUvarint(rest)
			if derr != nil {
				return nil, fmt.Errorf("tidlist: pair index of block %d: %w", id, derr)
			}
			data = rest2
			idx[itemset.NewItemset(itemset.Item(a), itemset.Item(b)).Key()] = true
		}
	}
	s.pairIndex[id] = idx
	return idx, nil
}

// ItemList reads θ_Di(x). A list that was never materialized (the item does
// not occur in the block) is empty, not an error; any other storage failure
// propagates — silently treating a read fault as an absent item would
// corrupt counts.
func (s *Store) ItemList(id blockseq.ID, it itemset.Item) (List, error) {
	_, l, err := s.readList(nil, itemKey(id, it))
	if errors.Is(err, diskio.ErrNotFound) {
		return nil, nil // absent item: empty list
	}
	if err != nil {
		return nil, fmt.Errorf("tidlist: block %d item %d: %w", id, it, err)
	}
	return l, nil
}

// PairList reads the materialized list of a 2-itemset, reporting ok=false
// when that pair was not materialized for the block.
func (s *Store) PairList(id blockseq.ID, pair itemset.Itemset) (List, bool, error) {
	idx, err := s.loadPairIndex(id)
	if err != nil {
		return nil, false, err
	}
	if !idx[pair.Key()] {
		return nil, false, nil
	}
	_, l, err := s.pairList(nil, id, pair)
	if err != nil {
		return nil, false, err
	}
	return l, true, nil
}

// pairList reads the list of a pair the caller found in the block's pair
// index, decoding it onto the end of slab.
func (s *Store) pairList(slab List, id blockseq.ID, pair itemset.Itemset) (List, List, error) {
	slab, l, err := s.readList(slab, pairKey(id, pair))
	if err != nil {
		return slab, nil, fmt.Errorf("tidlist: pair %v of block %d: %w", pair, id, err)
	}
	return slab, l, nil
}

// readList fetches the list stored under key and decodes it onto the end of
// slab, returning the extended slab and the list, capped so that an append to
// it cannot reach into the next one. A slab without room for the list is not
// grown, which would copy the lists already cut from it: a new one at least
// twice its size takes over. A nil slab gets a list of its own. readList
// counts the entries decoded, and rejects trailing bytes: a decoder that
// stopped at the declared count would accept a record overwritten with a
// longer one.
func (s *Store) readList(slab List, key string) (List, List, error) {
	data, err := s.store.Get(key)
	if err != nil {
		return slab, nil, err
	}
	if slab != nil && cap(slab)-len(slab) < len(data) { // a list has fewer entries than bytes
		slab = make(List, 0, max(2*cap(slab), len(data)))
	}
	start := len(slab)
	ints, rest, err := diskio.ReadSortedIntsAppend(slab, data)
	if err != nil {
		return slab, nil, err
	}
	if len(rest) != 0 {
		return slab, nil, fmt.Errorf("%w: %d trailing bytes", diskio.ErrCorrupt, len(rest))
	}
	s.entriesRead.Add(int64(len(ints) - start))
	return ints, ints[start:len(ints):len(ints)], nil
}

// PairEntries returns the total number of TIDs stored in materialized pair
// lists for the given blocks — the numerator of the Figure 3 space-overhead
// table.
func (s *Store) PairEntries(ids []blockseq.ID) (int64, error) {
	var total int64
	for _, id := range ids {
		idx, err := s.loadPairIndex(id)
		if err != nil {
			return 0, err
		}
		for k := range idx {
			data, err := s.store.Get(pairKey(id, k.Itemset()))
			if err != nil {
				return 0, err
			}
			n, _, err := diskio.ReadUvarint(data)
			if err != nil {
				return 0, fmt.Errorf("tidlist: pair index entry of block %d: %w", id, err)
			}
			total += int64(n)
		}
	}
	return total, nil
}
