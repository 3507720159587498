package borders

import (
	"bytes"
	"fmt"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// Encode serializes the model: the lattice format of itemset/codec.go,
// streamed from the tree — tree order is the format's order — then the
// covered block identifiers. A model is small compared to its blocks, so — as
// Section 3.2.3 argues — keeping all but the current one on disk costs
// negligible space.
func (m *Model) Encode() []byte {
	buf := itemset.AppendLatticeHeader(nil, m.N, m.MinSupport, m.Passes)
	buf = itemset.AppendSection(buf, m.NumFrequent(), m.EachFrequent)
	buf = itemset.AppendSection(buf, m.ix.tree.Size()-m.NumFrequent(), m.EachBorder)
	ids := make([]int, len(m.Blocks))
	for i, id := range m.Blocks {
		ids[i] = int(id)
	}
	return diskio.AppendInts(buf, ids)
}

// DecodeModel reverses Model.Encode, streaming the sections into the tree.
// The payload must describe a model, not just parse: κ in (0, 1), no set
// listed twice or in both sections, every (len-1)-subset of a tracked set
// frequent, frequent counts at or above MinCount(N, κ) and border counts
// below it. Anything else is corrupt — maintenance resumed on such a family
// would silently diverge from the data.
func DecodeModel(data []byte) (*Model, error) {
	m := &Model{ix: newIndex()}
	var err error
	if m.N, m.MinSupport, m.Passes, data, err = itemset.ReadLatticeHeader(data); err != nil {
		return nil, fmt.Errorf("borders: decoding model: %w", err)
	}
	if !(m.MinSupport > 0 && m.MinSupport < 1) {
		return nil, fmt.Errorf("borders: %w: model threshold %v outside (0, 1)", diskio.ErrCorrupt, m.MinSupport)
	}
	ix, minCount := m.ix, itemset.MinCount(m.N, m.MinSupport)
	// The sections arrive in tree order, so a set's prefix — its parent node
	// — must be there before it: each set adds exactly one node. A frequent
	// set's other subsets come after it and are checked once L is complete.
	data, err = itemset.ReadSection(data, func(x itemset.Itemset, count int) error {
		if count < minCount || len(x) > 1 && ix.tree.Lookup(x, len(x)-1) < 0 {
			return fmt.Errorf("borders: %w: %v at %d is not frequent, or its prefix is not", diskio.ErrCorrupt, x, count)
		}
		ix.track(x, count, frequent)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("borders: decoding model's frequent sets: %w", err)
	}
	ix.listFrequent()
	closed := func(x itemset.Itemset) bool {
		for skip := 0; len(x) > 1 && skip < len(x); skip++ {
			if n := ix.tree.Lookup(x, skip); n < 0 || ix.class[n] != frequent {
				return false
			}
		}
		return true
	}
	m.EachFrequent(func(x itemset.Itemset, _ int) {
		if err == nil && !closed(x) {
			err = fmt.Errorf("borders: %w: frequent %v has a subset that is not", diskio.ErrCorrupt, x)
		}
	})
	if err != nil {
		return nil, err
	}
	data, err = itemset.ReadSection(data, func(x itemset.Itemset, count int) error {
		if count >= minCount || ix.tree.Lookup(x, -1) >= 0 || !closed(x) {
			return fmt.Errorf("borders: %w: %v at %d is not in the negative border", diskio.ErrCorrupt, x, count)
		}
		ix.track(x, count, border)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("borders: decoding model's border: %w", err)
	}
	ids, rest, err := diskio.ReadInts(data)
	if err != nil {
		return nil, fmt.Errorf("borders: decoding model blocks: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("borders: %w: %d trailing bytes after model", diskio.ErrCorrupt, len(rest))
	}
	m.Blocks = make([]blockseq.ID, len(ids))
	for i, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("borders: %w: model block %d", diskio.ErrCorrupt, id)
		}
		m.Blocks[i] = blockseq.ID(id)
	}
	if !bytes.Equal(diskio.AppendInts(nil, ids), data) {
		return nil, fmt.Errorf("borders: %w: model blocks not as the encoder writes them", diskio.ErrCorrupt)
	}
	return m, nil
}

// ModelStore persists models under named slots through a diskio.Store —
// the disk-resident collection of future-window models GEMM maintains.
type ModelStore struct {
	store  diskio.Store
	prefix string
}

// NewModelStore creates a store writing under the given key prefix.
func NewModelStore(store diskio.Store, prefix string) *ModelStore {
	return &ModelStore{store: store, prefix: prefix}
}

func (s *ModelStore) key(slot int) string {
	return fmt.Sprintf("%s/model-%04d", s.prefix, slot)
}

// Save writes the model of one slot.
func (s *ModelStore) Save(slot int, m *Model) error {
	if err := s.store.Put(s.key(slot), m.Encode()); err != nil {
		return fmt.Errorf("borders: saving model slot %d: %w", slot, err)
	}
	return nil
}

// Load reads the model of one slot.
func (s *ModelStore) Load(slot int) (*Model, error) {
	data, err := s.store.Get(s.key(slot))
	if err != nil {
		return nil, fmt.Errorf("borders: loading model slot %d: %w", slot, err)
	}
	return DecodeModel(data)
}
