package itemset

import (
	"fmt"
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
// TIDs starting at firstTID and canonicalizing every transaction.
func NewTxBlock(id blockseq.ID, firstTID int, rows [][]Item) *TxBlock {
	b := &TxBlock{ID: id, FirstTID: firstTID, Txs: make([]Transaction, len(rows))}
	for i, row := range rows {
		b.Txs[i] = Transaction{TID: firstTID + i, Items: NewItemset(row...)}
	}
	return b
}

// Encode serializes the block: id, firstTID, count, then each transaction's
// sorted item list (delta-encoded).
func (b *TxBlock) Encode() []byte {
	buf := diskio.AppendUvarint(nil, uint64(b.ID))
	buf = diskio.AppendUvarint(buf, uint64(b.FirstTID))
	buf = diskio.AppendUvarint(buf, uint64(len(b.Txs)))
	ints := make([]int, 0, 32)
	for _, tx := range b.Txs {
		ints = ints[:0]
		for _, it := range tx.Items {
			ints = append(ints, int(it))
		}
		buf = diskio.AppendSortedInts(buf, ints)
	}
	return buf
}

// DecodeTxBlock reverses Encode.
func DecodeTxBlock(data []byte) (*TxBlock, error) {
	id, data, err := diskio.ReadUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("itemset: decoding block id: %w", err)
	}
	first, data, err := diskio.ReadUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("itemset: decoding first TID: %w", err)
	}
	n, data, err := diskio.ReadUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("itemset: decoding tx count: %w", err)
	}
	b := &TxBlock{ID: blockseq.ID(id), FirstTID: int(first), Txs: make([]Transaction, n)}
	for i := range b.Txs {
		ints, rest, err := diskio.ReadSortedInts(data)
		if err != nil {
			return nil, fmt.Errorf("itemset: decoding tx %d: %w", i, err)
		}
		data = rest
		items := make(Itemset, len(ints))
		for j, x := range ints {
			items[j] = Item(x)
		}
		b.Txs[i] = Transaction{TID: int(first) + i, Items: items}
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

func blockKey(id blockseq.ID) string { return fmt.Sprintf("txblock/%08d", id) }

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

// NumTx returns the transaction count of a block, reading only the header if
// the count is not cached.
func (s *BlockStore) NumTx(id blockseq.ID) (int, error) {
	if n, ok := s.size(id); ok {
		return n, nil
	}
	b, err := s.Get(id)
	if err != nil {
		return 0, err
	}
	return len(b.Txs), nil
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
