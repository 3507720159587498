package serve

// Unit tests of the sequencing layer: the (seq, t) meta codec, the
// recovery-time reconciliation between the persisted sequence record and the
// position the model actually restored to, and openModel's behaviour across
// crash/restart cycles — including the rolled-out-blocks case where the seq
// record runs ahead of the restored checkpoint.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

func TestSeqMetaRoundTrip(t *testing.T) {
	store := diskio.NewMemStore()

	if _, _, err := getSeqMeta(store); !errors.Is(err, diskio.ErrNotFound) {
		t.Fatalf("empty store: got %v, want ErrNotFound", err)
	}
	if err := putSeqMeta(store, 42, 17); err != nil {
		t.Fatalf("putSeqMeta: %v", err)
	}
	seq, ts, err := getSeqMeta(store)
	if err != nil {
		t.Fatalf("getSeqMeta: %v", err)
	}
	if seq != 42 || ts != 17 {
		t.Fatalf("round-trip got (%d, %d), want (42, 17)", seq, ts)
	}

	// Trailing garbage after the pair is corruption, not tolerated silence.
	raw, err := store.Get(seqMetaKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(seqMetaKey, append(append([]byte(nil), raw...), 0x01)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := getSeqMeta(store); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
	}
}

func TestRecoverSeqReconciliation(t *testing.T) {
	cases := []struct {
		name      string
		seq       uint64
		ts        demon.BlockID
		restoredT demon.BlockID
		want      uint64
		wantErr   bool
	}{
		{name: "record matches restore point", seq: 5, ts: 5, restoredT: 5, want: 5},
		{name: "two blocks rolled out", seq: 5, ts: 7, restoredT: 5, want: 3},
		{name: "restore predates sequencing", seq: 2, ts: 10, restoredT: 3, want: 0},
		{name: "all sequenced blocks rolled out", seq: 3, ts: 3, restoredT: 0, want: 0},
		{name: "record behind restored model", seq: 5, ts: 4, restoredT: 6, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := diskio.NewMemStore()
			if err := putSeqMeta(store, tc.seq, tc.ts); err != nil {
				t.Fatal(err)
			}
			got, err := recoverSeq(store, tc.restoredT)
			if tc.wantErr {
				if !errors.Is(err, diskio.ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recoverSeq: %v", err)
			}
			if got != tc.want {
				t.Fatalf("recoverSeq(seq=%d, ts=%d, restored=%d) = %d, want %d",
					tc.seq, tc.ts, tc.restoredT, got, tc.want)
			}
		})
	}

	store := diskio.NewMemStore()
	if hw, err := recoverSeq(store, 3); err != nil || hw != 0 {
		t.Fatalf("never-sequenced store: got (%d, %v), want (0, nil)", hw, err)
	}
}

// seqHarness stands in for the Namespace worker when driving openModel
// directly: it carries the in-flight block's sequence number to the TxnHook
// the same way Namespace.pendingSeq does.
type seqHarness struct {
	pending atomic.Uint64
}

func (h *seqHarness) hook(store demon.Store, id demon.BlockID) error {
	if s := h.pending.Load(); s != 0 {
		return putSeqMeta(store, s, id)
	}
	return nil
}

func (h *seqHarness) apply(m model, seq uint64, rows [][]itemset.Item) error {
	h.pending.Store(seq)
	defer h.pending.Store(0)
	return m.apply(context.Background(), blockio.TxBlock(rows))
}

// TestSeqRecoveryAcrossRestarts drives the exact scenario the ISSUE's
// tentpole describes: blocks applied after the last checkpoint roll out of
// the model on restart while their seq record stays ahead, and the recovered
// high-water mark must come back to the restored position so the client's
// re-sends are accepted — not rejected as duplicates (dropped blocks) nor
// beyond the model (double counts).
func TestSeqRecoveryAcrossRestarts(t *testing.T) {
	spec := Spec{Name: "seq", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut"}
	store := diskio.NewChecksumStore(diskio.NewMemStore())
	blocks := [][][]itemset.Item{txRows(8, 0), txRows(8, 1), txRows(8, 2), txRows(8, 3)}

	h := &seqHarness{}
	m, hw, err := openModel(store, spec, h.hook)
	if err != nil {
		t.Fatalf("openModel: %v", err)
	}
	if hw != 0 {
		t.Fatalf("fresh store highwater %d, want 0", hw)
	}

	// Blocks 1, 2 sequenced and checkpoint-covered; 3, 4 committed but
	// post-checkpoint — durable as raw transactions, rolled out of the model
	// on restart.
	for i, rows := range blocks {
		if err := h.apply(m, uint64(i+1), rows); err != nil {
			t.Fatalf("apply block %d: %v", i+1, err)
		}
		if i == 1 {
			if err := m.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	if seq, ts, err := getSeqMeta(store); err != nil || seq != 4 || ts != 4 {
		t.Fatalf("seq meta after stream: (%d, %d, %v), want (4, 4, nil)", seq, ts, err)
	}

	// "Crash": reopen over the same store. The model restores to the
	// checkpoint at T=2; the seq record at (4, 4) ran two blocks ahead.
	m2, hw2, err := openModel(store, spec, h.hook)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if m2.T() != 2 {
		t.Fatalf("restored model at T=%d, want 2 (the checkpoint)", m2.T())
	}
	if hw2 != 2 {
		t.Fatalf("recovered highwater %d, want 2 — blocks 3, 4 rolled out and must be re-sent", hw2)
	}

	// The client re-sends from highwater+1; re-application converges.
	for i := int(hw2); i < len(blocks); i++ {
		if err := h.apply(m2, uint64(i+1), blocks[i]); err != nil {
			t.Fatalf("re-apply block %d: %v", i+1, err)
		}
	}
	if err := m2.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}

	// Now nothing is rolled out: a further restart recovers the full mark.
	m3, hw3, err := openModel(store, spec, h.hook)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	if m3.T() != 4 || hw3 != 4 {
		t.Fatalf("after checkpointed stream: T=%d highwater=%d, want 4/4", m3.T(), hw3)
	}
}
