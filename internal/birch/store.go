package birch

import (
	"fmt"
	"math"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/diskio"
)

// PointBlock is one block of points in a systematically evolving database of
// tuples-as-points.
type PointBlock struct {
	ID     blockseq.ID
	Points []cf.Point
}

// Encode serializes the block: id, dimensionality, count, then coordinates.
func (b *PointBlock) Encode() ([]byte, error) {
	dim := 0
	if len(b.Points) > 0 {
		dim = len(b.Points[0])
	}
	buf := diskio.AppendUvarint(nil, uint64(b.ID))
	buf = diskio.AppendUvarint(buf, uint64(dim))
	buf = diskio.AppendUvarint(buf, uint64(len(b.Points)))
	for i, p := range b.Points {
		if len(p) != dim {
			return nil, fmt.Errorf("birch: point %d has dimension %d, block dimension %d", i, len(p), dim)
		}
		buf = diskio.AppendFloat64s(buf, p)
	}
	return buf, nil
}

// DecodePointBlock reverses Encode. It accepts only the bytes Encode writes:
// anything else, down to a longer varint or a trailing byte, is
// diskio.ErrCorrupt.
func DecodePointBlock(data []byte) (*PointBlock, error) {
	id, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("birch: decoding block id: %w", err)
	}
	dim, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("birch: decoding dimension: %w", err)
	}
	n, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("birch: decoding point count: %w", err)
	}
	// Every point costs at least its one-byte coordinate count, and an empty
	// block is written with dimension 0.
	if id > math.MaxInt || n > uint64(len(data)) || n == 0 && dim != 0 {
		return nil, fmt.Errorf("birch: %w: block %d of %d points of dimension %d in %d bytes",
			diskio.ErrCorrupt, id, n, dim, len(data))
	}
	b := &PointBlock{ID: blockseq.ID(id), Points: make([]cf.Point, n)}
	for i := range b.Points {
		xs, rest, err := diskio.ReadFloat64s(data)
		if err != nil {
			return nil, fmt.Errorf("birch: decoding point %d: %w", i, err)
		}
		if uint64(len(xs)) != dim {
			return nil, fmt.Errorf("birch: %w: point %d has %d coordinates, want %d", diskio.ErrCorrupt, i, len(xs), dim)
		}
		data = rest
		b.Points[i] = cf.Point(xs)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("birch: %w: %d trailing bytes after point block", diskio.ErrCorrupt, len(data))
	}
	return b, nil
}

// PointStore persists point blocks through a diskio.Store.
type PointStore struct {
	store diskio.Store
}

// NewPointStore wraps store.
func NewPointStore(store diskio.Store) *PointStore {
	return &PointStore{store: store}
}

func pointBlockKey(id blockseq.ID) string { return fmt.Sprintf("ptblock/%08d", id) }

// Put stores the block.
func (s *PointStore) Put(b *PointBlock) error {
	data, err := b.Encode()
	if err != nil {
		return err
	}
	return s.store.Put(pointBlockKey(b.ID), data)
}

// Get loads the block with the given identifier.
func (s *PointStore) Get(id blockseq.ID) (*PointBlock, error) {
	data, err := s.store.Get(pointBlockKey(id))
	if err != nil {
		return nil, err
	}
	return DecodePointBlock(data)
}
