package cf

import (
	"fmt"
	"math"

	"github.com/demon-mining/demon/internal/diskio"
)

// Tree serialization for checkpointing BIRCH+. The resident CF-tree is the
// whole incremental state of the cluster maintainer, so persisting it
// (Section 3.2.3) makes a restarted process behaviorally identical to one
// that never stopped: every field that influences future insertions — the
// node structure, the grown threshold, the counters that drive rebuilds —
// round-trips exactly. Floats are stored as IEEE-754 bits, so a decoded tree
// is bit-for-bit the encoded one. The header keeps a slot for an outlier
// count that is always zero, so the layout of earlier checkpoints holds.

// Encode serializes the tree. The configuration is not included; it is
// supplied again at DecodeTree and must match the one the tree was built
// under.
func (t *Tree) Encode() []byte {
	buf := diskio.AppendUvarint(nil, uint64(t.dim))
	buf = diskio.AppendUvarint(buf, uint64(t.numLeafCFs))
	buf = diskio.AppendUvarint(buf, math.Float64bits(t.threshold))
	buf = diskio.AppendUvarint(buf, uint64(t.rebuilds))
	buf = diskio.AppendUvarint(buf, uint64(t.points))
	buf = diskio.AppendUvarint(buf, 0) // outlier count
	return appendNode(buf, t.root)
}

func appendCF(buf []byte, c CF) []byte {
	buf = diskio.AppendUvarint(buf, uint64(c.N))
	buf = diskio.AppendFloat64s(buf, c.LS)
	return diskio.AppendUvarint(buf, math.Float64bits(c.SS))
}

func appendNode(buf []byte, n *node) []byte {
	leaf := byte(0)
	if n.leaf {
		leaf = 1
	}
	buf = append(buf, leaf)
	buf = diskio.AppendUvarint(buf, uint64(len(n.entries)))
	for _, e := range n.entries {
		buf = appendCF(buf, e.cf)
		if !n.leaf {
			buf = appendNode(buf, e.child)
		}
	}
	return buf
}

// DecodeTree reverses Encode under the given configuration. Trailing bytes,
// implausible structure, nodes larger than the configuration allows and
// leaf-count mismatches are rejected as corrupt — a checkpoint that does not
// describe a well-formed tree must never be resumed from silently. Every
// accepted input is exactly what Encode writes for the decoded tree.
func DecodeTree(cfg TreeConfig, data []byte) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg}

	dim, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("cf: decoding tree dimension: %w", err)
	}
	nLeaf, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("cf: decoding leaf count: %w", err)
	}
	thBits, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("cf: decoding threshold: %w", err)
	}
	rebuilds, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("cf: decoding rebuild count: %w", err)
	}
	points, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("cf: decoding point count: %w", err)
	}
	t.dim = int(dim)
	t.numLeafCFs = int(nLeaf)
	t.threshold = math.Float64frombits(thBits)
	t.rebuilds = int(rebuilds)
	t.points = int(points)

	nOut, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("cf: decoding outlier count: %w", err)
	}
	if nOut != 0 {
		return nil, fmt.Errorf("%w: %d outliers in a tree that buffers none", diskio.ErrCorrupt, nOut)
	}

	t.root, data, err = t.readNode(data)
	if err != nil {
		return nil, err
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after tree", diskio.ErrCorrupt, len(data))
	}
	if got := countLeafCFs(t.root); got != t.numLeafCFs {
		return nil, fmt.Errorf("%w: tree holds %d leaf entries, header says %d",
			diskio.ErrCorrupt, got, t.numLeafCFs)
	}
	return t, nil
}

func readCF(data []byte, dim int) (CF, []byte, error) {
	n, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return CF{}, nil, err
	}
	ls, data, err := diskio.ReadFloat64s(data)
	if err != nil {
		return CF{}, nil, err
	}
	if n != 0 && len(ls) != dim {
		return CF{}, nil, fmt.Errorf("%w: CF dimension %d, tree dimension %d",
			diskio.ErrCorrupt, len(ls), dim)
	}
	ssBits, data, err := diskio.ReadShortestUvarint(data)
	if err != nil {
		return CF{}, nil, err
	}
	return CF{N: int(n), LS: ls, SS: math.Float64frombits(ssBits)}, data, nil
}

func (t *Tree) readNode(data []byte) (*node, []byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: truncated tree node", diskio.ErrCorrupt)
	}
	if data[0] > 1 {
		return nil, nil, fmt.Errorf("%w: node leaf flag %d", diskio.ErrCorrupt, data[0])
	}
	n := &node{leaf: data[0] == 1}
	count, data, err := diskio.ReadShortestUvarint(data[1:])
	if err != nil {
		return nil, nil, fmt.Errorf("cf: decoding node entry count: %w", err)
	}
	limit := t.cfg.Branching
	if n.leaf {
		limit = t.cfg.LeafEntries
	}
	if count > uint64(limit) {
		return nil, nil, fmt.Errorf("%w: node of %d entries, at most %d fit", diskio.ErrCorrupt, count, limit)
	}
	n.entries = make([]entry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e entry
		if e.cf, data, err = readCF(data, t.dim); err != nil {
			return nil, nil, fmt.Errorf("cf: decoding node entry %d: %w", i, err)
		}
		if !n.leaf {
			if e.child, data, err = t.readNode(data); err != nil {
				return nil, nil, err
			}
		}
		n.entries = append(n.entries, e)
	}
	return n, data, nil
}

func countLeafCFs(n *node) int {
	if n.leaf {
		return len(n.entries)
	}
	total := 0
	for _, e := range n.entries {
		total += countLeafCFs(e.child)
	}
	return total
}
