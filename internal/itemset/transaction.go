package itemset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
)

// Transaction is a customer transaction: a canonical itemset plus the unique
// transaction identifier (TID) assigned in arrival order. TIDs increase
// across blocks, which is what makes per-block TID-lists mergeable.
type Transaction struct {
	TID   int
	Items Itemset
}

// Contains reports whether the transaction contains the itemset X ⊆ T.
func (t Transaction) Contains(x Itemset) bool { return x.SubsetOf(t.Items) }

// TxBlock is one block of transactions in a systematically evolving
// database. Transactions carry consecutive TIDs starting at FirstTID.
type TxBlock struct {
	ID       blockseq.ID
	FirstTID int
	Txs      []Transaction
}

// Len returns the number of transactions in the block.
func (b *TxBlock) Len() int { return len(b.Txs) }

// NewTxBlock assembles a block from raw item slices, assigning consecutive
// TIDs starting at firstTID and canonicalizing every transaction. The rows
// are copied into one backing array the block owns — the caller's are
// neither kept nor reordered — and sorted there only when they are not
// strictly increasing already, which a row off the wire or out of a
// generator is.
func NewTxBlock(id blockseq.ID, firstTID int, rows [][]Item) *TxBlock {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	slab := make([]Item, 0, total)
	b := &TxBlock{ID: id, FirstTID: firstTID, Txs: make([]Transaction, len(rows))}
	for i, row := range rows {
		start := len(slab)
		slab = append(slab, row...)
		b.Txs[i] = Transaction{TID: firstTID + i, Items: canonical(slab[start:])}
	}
	return b
}

// canonical sorts and deduplicates s in place and returns it capped at its
// length (an append to one row of a slab must not reach the next), nil when
// empty.
func canonical(s []Item) Itemset {
	if len(s) == 0 {
		return nil
	}
	if !strictlyIncreasing(s) {
		slices.Sort(s)
		s = slices.Compact(s)
	}
	return Itemset(s[:len(s):len(s)])
}

func strictlyIncreasing(s []Item) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// ErrNegativeItem reports an item id below zero: the delta codecs of blocks
// and TID-lists have no encoding for one.
var ErrNegativeItem = errors.New("itemset: negative item id")

// CheckRows is the validation of rows arriving from outside the program; it
// fails with ErrNegativeItem.
func CheckRows(rows [][]Item) error {
	for i, row := range rows {
		for _, it := range row {
			if it < 0 {
				return fmt.Errorf("%w %d in transaction %d", ErrNegativeItem, it, i)
			}
		}
	}
	return nil
}

// Encode serializes the block: id, firstTID, count, then each transaction's
// sorted item list (count, first item + 1, then successive gaps — the layout
// of diskio.AppendSortedInts).
func (b *TxBlock) Encode() []byte {
	items := 0
	for _, tx := range b.Txs {
		items += len(tx.Items)
	}
	// A gap is one byte for items 128 apart or closer, which most are.
	buf := make([]byte, 0, 3*binary.MaxVarintLen64+2*len(b.Txs)+items+items/4)
	buf = binary.AppendUvarint(buf, uint64(b.ID))
	buf = binary.AppendUvarint(buf, uint64(b.FirstTID))
	buf = binary.AppendUvarint(buf, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		buf = binary.AppendUvarint(buf, uint64(len(tx.Items)))
		prev := -1
		for _, it := range tx.Items {
			gap := int(it) - prev
			if gap <= 0 {
				panic(fmt.Sprintf("itemset: TxBlock.Encode: items not strictly increasing at %d after %d", it, prev))
			}
			if gap < 0x80 {
				buf = append(buf, byte(gap))
			} else {
				buf = binary.AppendUvarint(buf, uint64(gap))
			}
			prev = int(it)
		}
	}
	return buf
}

// readHeader decodes the three uvarints every encoded block opens with.
func readHeader(data []byte) (id blockseq.ID, firstTID, n uint64, rest []byte, err error) {
	var raw uint64
	if raw, data, err = diskio.ReadUvarint(data); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("itemset: decoding block id: %w", err)
	}
	if firstTID, data, err = diskio.ReadUvarint(data); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("itemset: decoding first TID: %w", err)
	}
	if n, data, err = diskio.ReadUvarint(data); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("itemset: decoding tx count: %w", err)
	}
	return blockseq.ID(raw), firstTID, n, data, nil
}

// DecodeTxBlock reverses Encode. The transactions are sub-slices of one
// backing array, each capped at its own length.
func DecodeTxBlock(data []byte) (*TxBlock, error) {
	id, first, n, data, err := readHeader(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) {
		// Each transaction needs at least its length byte; cheap corruption
		// guard before allocating.
		return nil, fmt.Errorf("itemset: %w: implausible tx count %d", diskio.ErrCorrupt, n)
	}
	// Every uvarint ends in exactly one byte below 0x80, and a well-formed
	// body is n lengths plus one uvarint per item: a capacity hint, exact
	// unless the bytes are corrupt, and then still no more than their count.
	terminators := 0
	for _, c := range data {
		if c < 0x80 {
			terminators++
		}
	}
	slab := make([]Item, 0, max(terminators-int(n), 0))
	b := &TxBlock{ID: id, FirstTID: int(first), Txs: make([]Transaction, n)}
	for i := range b.Txs {
		k, rest, err := diskio.ReadUvarint(data)
		if err != nil {
			return nil, fmt.Errorf("itemset: decoding tx %d: %w", i, err)
		}
		if k > uint64(len(rest)) {
			return nil, fmt.Errorf("itemset: decoding tx %d: %w: implausible list length %d", i, diskio.ErrCorrupt, k)
		}
		data = rest
		start := len(slab)
		prev := -1
		for ; k > 0; k-- {
			// Gaps of one and two bytes — items under 16,384 apart — inline.
			switch {
			case len(data) >= 1 && data[0] < 0x80:
				prev += int(data[0])
				data = data[1:]
			case len(data) >= 2 && data[1] < 0x80:
				prev += int(data[0]&0x7f) | int(data[1])<<7
				data = data[2:]
			default:
				gap, w := binary.Uvarint(data)
				if w <= 0 {
					return nil, fmt.Errorf("itemset: decoding tx %d: %w: bad uvarint", i, diskio.ErrCorrupt)
				}
				prev += int(gap)
				data = data[w:]
			}
			slab = append(slab, Item(prev))
		}
		b.Txs[i] = Transaction{TID: int(first) + i, Items: Itemset(slab[start:len(slab):len(slab)])}
	}
	return b, nil
}

// BlockStore persists transaction blocks through a diskio.Store and tracks
// the total transaction count per block so supports can be turned into
// fractions without re-reading data. It is safe for concurrent use (the
// parallel counters read disjoint block shards through one BlockStore).
type BlockStore struct {
	store diskio.Store
	mu    sync.Mutex
	sizes map[blockseq.ID]int // block id -> transaction count
}

// NewBlockStore wraps store.
func NewBlockStore(store diskio.Store) *BlockStore {
	return &BlockStore{store: store, sizes: make(map[blockseq.ID]int)}
}

func (s *BlockStore) setSize(id blockseq.ID, n int) {
	s.mu.Lock()
	s.sizes[id] = n
	s.mu.Unlock()
}

func (s *BlockStore) size(id blockseq.ID) (int, bool) {
	s.mu.Lock()
	n, ok := s.sizes[id]
	s.mu.Unlock()
	return n, ok
}

// blockKey is "txblock/" and the id zero-padded to eight digits.
func blockKey(id blockseq.ID) string {
	return string(id.AppendKey(append(make([]byte, 0, 24), "txblock/"...)))
}

// Put stores the block.
func (s *BlockStore) Put(b *TxBlock) error {
	if err := s.store.Put(blockKey(b.ID), b.Encode()); err != nil {
		return err
	}
	s.setSize(b.ID, len(b.Txs))
	return nil
}

// Get loads the block with the given identifier.
func (s *BlockStore) Get(id blockseq.ID) (*TxBlock, error) {
	data, err := s.store.Get(blockKey(id))
	if err != nil {
		return nil, err
	}
	b, err := DecodeTxBlock(data)
	if err != nil {
		return nil, err
	}
	s.setSize(id, len(b.Txs))
	return b, nil
}

// NumTx returns the transaction count of a block, reading only the header
// of the stored value if the count is not cached.
func (s *BlockStore) NumTx(id blockseq.ID) (int, error) {
	if n, ok := s.size(id); ok {
		return n, nil
	}
	data, err := s.store.Get(blockKey(id))
	if err != nil {
		return 0, err
	}
	_, _, n, _, err := readHeader(data)
	if err != nil {
		return 0, err
	}
	s.setSize(id, int(n))
	return int(n), nil
}

// ForEachTx streams every transaction of the given blocks, in block then TID
// order, to fn. It is the full-dataset scan that PT-Scan performs.
func (s *BlockStore) ForEachTx(ids []blockseq.ID, fn func(tx Transaction) error) error {
	for _, id := range ids {
		b, err := s.Get(id)
		if err != nil {
			return err
		}
		for _, tx := range b.Txs {
			if err := fn(tx); err != nil {
				return err
			}
		}
	}
	return nil
}

// Store exposes the underlying diskio.Store (for I/O accounting).
func (s *BlockStore) Store() diskio.Store { return s.store }
