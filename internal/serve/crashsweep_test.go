package serve

// Crash-at-every-op sweeps of the serving layer's durability surfaces,
// mirroring the repository's top-level fault-sweep harness (picked up by
// `make faultsweep` via the CrashSweep name): for every operation index of a
// fault-free golden run, a fresh run is crashed at exactly that op with
// torn-write injection, reopened over the surviving bytes, re-fed what the
// recovered position says is missing, and compared byte-for-byte against the
// golden store. The surface swept here is a sequenced itemset model, proving
// the (seq, t) record written by the TxnHook stays exactly as durable as the
// block it describes; the monitor's block-history replay is swept with the
// other durable kinds, in the root package's TestFaultSweepMonitor.

import (
	"fmt"
	"testing"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// sweepBlocks builds the deterministic workload the sweep feeds.
func sweepBlocks(n int) [][][]itemset.Item {
	out := make([][][]itemset.Item, n)
	for b := range out {
		out[b] = txRows(8, b)
	}
	return out
}

// dumpStore snapshots every key/value of a store for exact comparison.
func dumpStore(t *testing.T, s demon.Store) map[string]string {
	t.Helper()
	dump, err := diskio.Dump(s)
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

// runServeCrashSweep drives the sweep: feed must create-or-resume its model
// over the store, work out what is missing from the recovered position, feed
// it, and leave the store at the stream's end state. The same function serves
// as golden run, crash victim, and recovery — resume-from-what-survived is
// the property under test.
func runServeCrashSweep(t *testing.T, feed func(demon.Store) error) {
	t.Helper()

	goldenBase := diskio.NewMemStore()
	if err := feed(diskio.NewChecksumStore(goldenBase)); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden := dumpStore(t, goldenBase)

	countFS := diskio.NewFaultStore(diskio.NewMemStore())
	if err := feed(diskio.NewChecksumStore(countFS)); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	total := int(countFS.Ops())
	if total == 0 {
		t.Fatal("workload performed no store operations")
	}

	stride := 1
	if testing.Short() {
		stride = total/30 + 1
	}
	t.Logf("sweeping %d operation indices (stride %d)", total, stride)

	for k := 0; k < total; k += stride {
		base := diskio.NewMemStore()
		fs := diskio.NewFaultStore(base)
		fs.TornWrite = true
		fs.CrashAfter(k)
		if err := feed(diskio.NewChecksumStore(fs)); err == nil {
			t.Fatalf("k=%d: workload succeeded despite crash injection", k)
		}
		if !fs.Dead() {
			t.Fatalf("k=%d: workload failed before the crash fired", k)
		}

		clean := diskio.NewChecksumStore(base)
		if err := feed(clean); err != nil {
			t.Fatalf("k=%d: recovery run: %v", k, err)
		}
		got := dumpStore(t, base)
		if d := diskio.DiffDumps(got, golden); d != "" {
			t.Fatalf("k=%d: recovered store diverges from golden run:\n%s", k, d)
		}
		rep, err := clean.Scrub("")
		if err != nil {
			t.Fatalf("k=%d: scrub: %v", k, err)
		}
		if len(rep.Quarantined) != 0 {
			t.Fatalf("k=%d: scrub quarantined %v after recovery", k, rep.Quarantined)
		}
	}
}

// TestCrashSweepSequencedItemset sweeps a sequenced itemset model through
// openModel: the seq record rides inside every block transaction and must
// reconcile with whatever checkpoint the crash left behind — never claiming
// a block the model lost (drop) nor forgetting one it kept (double count).
func TestCrashSweepSequencedItemset(t *testing.T) {
	spec := Spec{Name: "seq", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut"}
	workload := sweepBlocks(4)

	runServeCrashSweep(t, func(store demon.Store) error {
		h := &seqHarness{}
		m, hw, err := openModel(store, spec, h.hook)
		if err != nil {
			return err
		}
		if hw != uint64(m.T()) {
			return fmt.Errorf("recovered highwater %d does not match restored position %d", hw, m.T())
		}
		for i := int(hw); i < len(workload); i++ {
			if err := h.apply(m, uint64(i+1), workload[i]); err != nil {
				return err
			}
			// Mid-stream checkpoint at T=2, so the sweep crosses restarts
			// both with and without rolled-out sequenced blocks.
			if m.T() == 2 {
				if err := m.Checkpoint(); err != nil {
					return err
				}
			}
		}
		return m.Checkpoint()
	})
}
