package serve

import (
	"errors"
	"fmt"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/diskio"
)

// Sequencing sentinels the HTTP layer maps to status codes. Sequencing is
// opt-in per stream: a block carrying seq > 0 enrolls the namespace, after
// which every block must arrive in strict +1 order. Duplicates (seq at or
// below the accepted high-water mark) are acknowledged as no-ops so a client
// that re-sends after an ambiguous failure cannot double-ingest; gaps are
// rejected so a lost block cannot silently vanish.
var (
	// ErrDuplicate reports a block whose sequence number was already
	// accepted (HTTP 200 with "duplicate": true — an idempotent success).
	ErrDuplicate = errors.New("serve: duplicate block")
	// ErrSeqGap reports a sequence number beyond the next expected one
	// (HTTP 409: the client must re-send the missing blocks first).
	ErrSeqGap = errors.New("serve: sequence gap")
	// ErrUnsequenced reports a seq-less block sent to a namespace that has
	// started sequencing (HTTP 409: mixing modes would break the exactly-once
	// accounting).
	ErrUnsequenced = errors.New("serve: unsequenced block in sequenced namespace")
)

// seqMetaKey persists the namespace's sequence high-water mark. It is
// written by the miner's TxnHook inside the SAME transaction as the block's
// own writes, so the pair (seq, t) is exactly as durable as the block it
// describes: after a crash the store either has both the block and its seq
// record or neither. Unsequenced namespaces never write this key, keeping
// their stores byte-identical to plain miner runs.
const seqMetaKey = "checkpoint/serve/seq"

// putSeqMeta records that the block committed at position t carried
// sequence number seq.
func putSeqMeta(store demon.Store, seq uint64, t demon.BlockID) error {
	buf := diskio.AppendUvarint(nil, seq)
	buf = diskio.AppendUvarint(buf, uint64(t))
	return store.Put(seqMetaKey, buf)
}

// getSeqMeta reads the last committed (seq, t) pair; diskio.ErrNotFound
// when the namespace has never seen a sequenced block.
func getSeqMeta(store demon.Store) (seq uint64, t demon.BlockID, err error) {
	data, err := store.Get(seqMetaKey)
	if err != nil {
		return 0, 0, err
	}
	seq, data, err = diskio.ReadUvarint(data)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: decoding seq meta: %w", err)
	}
	tv, data, err := diskio.ReadUvarint(data)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: decoding seq meta: %w", err)
	}
	if len(data) != 0 {
		return 0, 0, fmt.Errorf("serve: %w: %d trailing bytes after seq meta", diskio.ErrCorrupt, len(data))
	}
	return seq, demon.BlockID(tv), nil
}

// recoverSeq reconciles the persisted sequence record with the position the
// model actually restored to. New* restores miners from the LAST
// CHECKPOINT, not the last applied block: blocks applied after the
// checkpoint roll out of the model on crash (their raw data remains in the
// store) and must be re-sent. The seq record, written per block, may
// therefore run AHEAD of the restored model by exactly the number of
// rolled-out blocks — and because sequenced blocks map 1:1 onto block
// positions from the moment sequencing starts (unsequenced blocks are
// refused once the namespace is enrolled), the true high-water mark is
//
//	S − (T_s − T_restored)
//
// clamped at zero for the case where the restore point predates sequencing
// entirely. The monitor kind always restores to its full history, so there
// T_s == T_restored and the record is used as-is.
func recoverSeq(store demon.Store, restoredT demon.BlockID) (uint64, error) {
	s, ts, err := getSeqMeta(store)
	if errors.Is(err, diskio.ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if ts < restoredT {
		return 0, fmt.Errorf("serve: %w: seq record at t=%d behind restored model t=%d", diskio.ErrCorrupt, ts, restoredT)
	}
	rolledOut := uint64(ts - restoredT)
	if rolledOut >= s {
		return 0, nil
	}
	return s - rolledOut, nil
}
