package demon

// The durability simulation (DESIGN §7): one seeded driver for the four
// durable facade kinds on every storage backend. A schedule runs a history
// of events through a diskio.FaultStore with faults — a crash at the k-th
// store operation, its Put torn, or one failed operation, as ENOSPC or EIO
// is — armed at the start and at each restart, so one can fire in recovery
// or re-feed. A restart reopens the surviving bytes, resumes, and runs the
// history on from the last checkpoint the restored model reflects. The
// invariants hold after every event (check, checkUnusable, restart); the
// store ends byte-identical to the fault-free twin's. Seeds below simRandom
// sweep the kind's fixed workload, crashing at operation k = seed; from
// simRandom on, a seed draws workload, history and, by (seed − simRandom)
// mod 3, no fault, one, or two to three. A schedule is the subtest
// <kind>/<backend>/seed=<n>; a failure prints its replay.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/diskio/kvfile"
)

const simRandom = 1000

// sweepTxBlocks builds a deterministic transactional workload: nBlocks blocks
// of nTxs transactions, three distinct items each, with enough repetition
// across blocks that minsup 0.3 yields a non-trivial lattice.
func sweepTxBlocks(nBlocks, nTxs int) [][][]Item {
	out := make([][][]Item, nBlocks)
	for b := range out {
		out[b] = make([][]Item, nTxs)
		for i := range out[b] {
			base := Item((b + i) % 4)
			out[b][i] = []Item{base, base + 10, Item(20 + i%3)}
		}
	}
	return out
}

// sweepPointBlocks builds a deterministic clustering workload: two well
// separated centers visited alternately.
func sweepPointBlocks(nBlocks, perBlock int) [][]Point {
	out := make([][]Point, nBlocks)
	for b := range out {
		out[b] = make([]Point, perBlock)
		for i := range out[b] {
			c := float64(((b + i) % 2) * 8)
			out[b][i] = Point{c + float64(i%4)*0.25, c - float64(i%3)*0.5}
		}
	}
	return out
}

// dumpStoreBytes snapshots every key/value of a store.
func dumpStoreBytes(t *testing.T, s Store) map[string]string {
	t.Helper()
	dump, err := diskio.Dump(s)
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

// journaled hides every optional capability of the store it embeds — the
// atomic batch in particular — so a miner over it commits through the redo
// journal, one store operation per key, each of them a crash index.
type journaled struct{ Store }

// sweepBackend is a row: open returns a fresh raw store and the restart over
// its surviving bytes (kvfile reopens its log, rebuilding the index); wrap is
// the stack a model runs on. mem commits a transaction as one Apply, file
// and mem-journal through the journal, the kvfile rows as Apply.
type sweepBackend struct {
	name string
	open func(t *testing.T) (base Store, reopen func() Store)
	wrap func(Store) Store
}

func sweepBackends() []sweepBackend {
	checksum := func(s Store) Store { return diskio.NewChecksumStore(s) }
	mem := func(open func() Store) func(*testing.T) (Store, func() Store) {
		return func(*testing.T) (Store, func() Store) { s := open(); return s, func() Store { return s } }
	}
	disk := func(open func(dir string) (Store, error)) func(*testing.T) (Store, func() Store) {
		return func(t *testing.T) (Store, func() Store) {
			dir, s := t.TempDir(), Store(nil)
			reopen := func() Store {
				CloseStore(s)
				var err error
				if s, err = open(dir); err != nil {
					t.Fatal(err)
				}
				return s
			}
			t.Cleanup(func() { CloseStore(s) })
			return reopen(), reopen
		}
	}
	kv := disk(func(dir string) (Store, error) { return kvfile.Open(dir+"/store.kv", kvfile.Options{}) })
	return []sweepBackend{
		{"mem", mem(func() Store { return diskio.NewMemStore() }), checksum},
		{"mem-journal", mem(func() Store { return journaled{diskio.NewMemStore()} }), checksum},
		{"file", disk(func(dir string) (Store, error) { return diskio.NewFileStore(dir) }), checksum},
		{"kvfile", kv, checksum},
		{"kvfile+cache", kv, func(s Store) Store { return diskio.NewCacheStore(checksum(s), 64<<10) }},
	}
}

// simKind is a durable facade kind ('i' ItemsetMiner, 'w' window miner, 'c'
// ClusterMiner, 'm' Monitor); disk runs its crash sweep on the disk rows too.
type simKind struct {
	name     string
	kind     byte
	strategy CountingStrategy
	disk     bool
}

var simKinds = []simKind{
	{"itemset-ptscan", 'i', PTScan, false}, {"itemset-ecut", 'i', ECUT, true},
	{"itemset-ecutplus", 'i', ECUTPlus, false}, {"window-ptscan", 'w', PTScan, false},
	{"window-ecut", 'w', ECUT, true}, {"window-ecutplus", 'w', ECUTPlus, true},
	{"cluster", 'c', 0, false}, {"monitor", 'm', 0, true},
}

// simEvent is an event: 'a' AddBlock, 'c' Checkpoint, 'd' DeleteOldestBlock,
// 'k' ChangeMinSupport(minsup), 'x' requests to refuse, 'z' kvfile Compact.
type simEvent struct {
	op     byte
	minsup float64
}

// simState is what a model reflects: T and, for an ItemsetMiner, first block and κ.
type simState struct {
	t, first BlockID
	minsup   float64
}

// simSpec is a workload and its history.
type simSpec struct {
	tx      [][][]Item
	pts     [][]Point
	minsup  float64
	every   int          // AutoCheckpointEvery
	w       int          // the window size of a window kind
	rel     WindowRelBSS // a window-relative BSS, or
	bits    []bool       // a window-independent one; neither selects every block
	history []simEvent
}

// denseSpec is the crash sweep's workload: blocks, then a checkpoint.
func denseSpec(k simKind, disk bool) *simSpec {
	sp := &simSpec{tx: sweepTxBlocks(6, 8), minsup: 0.3, every: 1}
	switch {
	case k.kind == 'i' && k.strategy == ECUTPlus:
		sp.tx = sweepTxBlocks(5, 8)
	case k.kind == 'i' && disk:
		sp.tx, sp.every = sweepTxBlocks(4, 6), 2
	case k.kind == 'i':
		sp.every = 2
	case k.kind == 'w' && k.strategy == PTScan:
		sp.tx, sp.w = sweepTxBlocks(5, 6), 3
	case k.kind == 'w':
		// The retention bound lags the checkpoint; at κ = 0.2 the pairs
		// {b, b+10} are frequent, so expired blocks take pair lists too.
		n := map[bool]int{false: 11, true: 8}[testing.Short()]
		sp.tx, sp.minsup, sp.w, sp.every = sweepTxBlocks(n, 6), 0.2, 3, 3
	case k.kind == 'c':
		sp.tx, sp.pts = nil, sweepPointBlocks(6, 12)
	}
	sp.history = append(slices.Repeat([]simEvent{{op: 'a'}}, len(sp.tx)+len(sp.pts)), simEvent{op: 'z'}, simEvent{op: 'c'})
	return sp
}

// drawSpec draws a workload and its history.
func drawSpec(k simKind, rng *rand.Rand) *simSpec {
	sp := &simSpec{minsup: 0.15, every: rng.Intn(4)}
	switch k.kind {
	case 'i':
		sp.history = []simEvent{{op: 'x'}}
	case 'w':
		sp.w, sp.bits = 2+rng.Intn(3), make([]bool, 20)
		for i := range sp.bits {
			sp.bits[i] = rng.Intn(2) == 1
		}
		if sp.bits[sp.w] { // half of them window-relative, selecting some block
			sp.bits[rng.Intn(sp.w)] = true
			sp.rel, sp.bits = blockseq.NewWindowRel(sp.bits[:sp.w]...), nil
		}
	case 'm':
		sp.minsup, sp.every = 0.3, 1
	}
	for covered, n := 0, 8+rng.Intn(10); len(sp.history) < n; {
		ev := simEvent{op: 'a'}
		switch p := rng.Float64(); {
		case k.kind == 'i' && covered > 1 && p < 0.2:
			ev.op, covered = 'd', covered-1
		case k.kind == 'i' && p < 0.35:
			ev = simEvent{op: 'k', minsup: []float64{0.08, 0.15, 0.25, 0.35}[rng.Intn(4)]}
		case k.kind == 'i' && p < 0.4:
			ev.op = 'x'
		case p > 0.9:
			ev.op = 'c'
		case k.kind == 'c':
			sp.pts, covered = append(sp.pts, clusterRows(rng, []Point{{0, 0}, {8, 8}}, 10+rng.Intn(20))), covered+1
		default:
			sp.tx, covered = append(sp.tx, randomTxRows(rng, 20+rng.Intn(30), 10, 4)), covered+1
		}
		sp.history = append(sp.history, ev)
	}
	sp.history = append(sp.history, simEvent{op: 'z'}, simEvent{op: 'c'})
	return sp
}

// simHookKey is where simHook writes, in each block's transaction, the
// block's position, the way serve's sequence record does (invariant 5).
const simHookKey = "sim/position"

func simHook(s Store, id BlockID) error {
	return s.Put(simHookKey, diskio.AppendUvarint(nil, uint64(id)))
}

// pick chooses a kind's Restore function when restore is set, its New
// function otherwise.
func pick[C, M any](restore bool, fresh, restored func(C) (M, error)) func(C) (M, error) {
	if restore {
		return restored
	}
	return fresh
}

// simFault is one injected fault: a crash with a torn write, or else one
// failed operation, at the k-th store operation after it is armed.
type simFault struct {
	crash bool
	k     int
}

// simRun is one schedule. A fault-free run is the twin the others end
// equal to: it holds each model it reaches to the oracle (Apriori over the
// blocks it covers, every BORDERS model sound) and records it, and a faulted
// run's model equals the twin's in every state it reaches.
type simRun struct {
	t      *testing.T
	k      simKind
	be     sweepBackend
	sp     *simSpec
	twin   *simRun // nil when this run is a twin
	faults []simFault
	log    []string
	base   Store
	reopen func() Store
	fs     *diskio.FaultStore
	fault  *simFault // the armed fault
	m      interface {
		T() BlockID
		Checkpoint() error
	}
	post    []simState          // the state after each event of the history
	models  map[simState]string // the model in each state
	dump    map[string]string   // the store at the end
	last    BlockID             // the block of the last step that committed
	ckpt    BlockID             // the position of the last durable checkpoint
	floor   BlockID             // the oldest block a window store may hold
	reached int                 // events run once; one below it is a re-feed
	fires   int                 // faults that fired
	crashes int
	covered []string // "crash <op>" or "fail <op>" for each event a fault failed, and other facts
	passed  bool     // a crash sweep's twin passed, whatever its seeds do
}

func (r *simRun) logf(f string, a ...any) { r.log = append(r.log, fmt.Sprintf(f, a...)) }

func (r *simRun) run() *simRun {
	st := simState{first: 1, minsup: r.sp.minsup}
	for _, ev := range r.sp.history {
		switch ev.op {
		case 'a':
			st.t++
		case 'd':
			st.first++
		case 'k':
			st.minsup = ev.minsup
		}
		r.post = append(r.post, st)
	}
	r.floor, r.models = 1, map[simState]string{}
	r.base, r.reopen = r.be.open(r.t)
	r.arm()
	i := 0
	if r.open(false) {
		r.check(simState{first: 1, minsup: r.sp.minsup})
	} else {
		i = r.restart(0)
	}
	for i < len(r.sp.history) {
		if r.do(i) {
			i++
		} else {
			i = r.restart(i)
		}
	}
	if r.fs.Dead() {
		r.t.Fatal("the schedule ended on a dead store: a crash went unreported")
	}
	for fact, ok := range map[string]bool{"crash twice": r.crashes > 1, "window N=0": r.k.kind == 'w' && r.sp.every == 0} {
		if ok {
			r.covered = append(r.covered, fact)
		}
	}
	if r.dump = dumpStoreBytes(r.t, r.base); r.twin != nil {
		if r.fires == 0 { // it ran fewer operations than its twin
			r.t.Fatal("the schedule's first fault never fired")
		}
		if d := diskio.DiffDumps(r.dump, r.twin.dump); d != "" {
			r.t.Fatalf("the store diverges from the fault-free twin's:\n%s", d)
		}
	}
	return r
}

// arm puts a fresh FaultStore over the base and arms the next fault in it.
func (r *simRun) arm() {
	r.fs, r.fault = diskio.NewFaultStore(r.base), nil
	if len(r.faults) == 0 {
		return
	}
	r.fault, r.faults = &r.faults[0], r.faults[1:]
	if r.fs.TornWrite = r.fault.crash; r.fault.crash {
		r.fs.CrashAfter(r.fault.k)
	} else {
		r.fs.FailAfter(r.fault.k)
	}
	r.logf("arm crash=%v k=%d", r.fault.crash, r.fault.k)
}

func (r *simRun) fired() bool {
	return r.fault != nil && (r.fs.Dead() || r.fs.Ops() > int64(r.fault.k))
}

// failed accepts a failure only when the armed fault explains it.
func (r *simRun) failed(what string, err error) {
	if !r.fired() {
		r.t.Fatalf("%s failed with no fault fired: %v", what, err)
	}
	r.logf("fired in %s", what)
	if r.fires++; r.fault.crash {
		r.crashes++
	}
}

// open creates the model over the FaultStore or, at a restart, resumes it:
// through Restore once a checkpoint is durable, which the kinds that have
// one then must find, and through New, which resumes from whatever the
// store holds, before that.
func (r *simRun) open(resume bool) bool {
	sp, s := r.sp, r.be.wrap(r.fs)
	i := resume && r.ckpt > 0
	var err error
	switch r.k.kind {
	case 'i':
		r.m, err = pick(i, NewItemsetMiner, RestoreItemsetMiner)(ItemsetMinerConfig{MinSupport: sp.minsup,
			Strategy: r.k.strategy, ECUTPlusBudget: 64, Store: s, AutoCheckpointEvery: sp.every, TxnHook: simHook})
	case 'w':
		// One worker keeps the order of the slots' reads, and with it the
		// operation a fault fires at, the same in every run.
		cfg := ItemsetWindowMinerConfig{MinSupport: sp.minsup, Strategy: r.k.strategy, WindowSize: sp.w,
			WindowRelBSS: sp.rel, Workers: 1, Store: s, AutoCheckpointEvery: sp.every, TxnHook: simHook}
		if sp.bits != nil {
			cfg.BSS = BSSFunc(func(id BlockID) bool { return sp.bits[id-1] })
		}
		r.m, err = pick(i, NewItemsetWindowMiner, RestoreItemsetWindowMiner)(cfg)
	case 'c':
		tree := TreeConfig{Branching: 3, LeafEntries: 4, MaxLeafEntriesTotal: 32}
		r.m, err = pick(i, NewClusterMiner, RestoreClusterMiner)(ClusterMinerConfig{K: 2,
			Store: s, AutoCheckpointEvery: sp.every, TxnHook: simHook, Tree: tree})
	case 'm':
		// The monitor checkpoints every block: it restores its whole history.
		r.m, err = NewMonitor(MonitorConfig{MinSupport: sp.minsup, Alpha: 0.05,
			Store: s, TxnHook: simHook})
	}
	if err != nil {
		r.failed(fmt.Sprintf("open (resuming: %v)", resume), err)
	}
	return err == nil
}

// apply runs ev on the model; an AddBlock feeds block i+1 of the workload.
// An 'x' asks for a threshold outside (0, 1) and, when the model covers no
// block, a deletion: both must be refused, and leave the model usable. A
// compacted kvfile log must hold nothing but its live records.
func (r *simRun) apply(ev simEvent, i int) (err error) {
	switch ev.op {
	case 'c':
		return r.m.Checkpoint()
	case 'z':
		if kv, ok := r.base.(*kvfile.Store); ok {
			if err := kv.Compact(); err != nil {
				return err
			}
			live, pairs := 0, false
			for key, v := range dumpStoreBytes(r.t, kv) {
				live += len(key) + len(v) + 16 // a record's framing is at most 16 bytes
				pairs = pairs || strings.HasPrefix(key, "tid2/")
			}
			if pairs && r.k.kind == 'w' {
				r.covered = append(r.covered, "window compaction of pair lists")
			}
			if kv.LogBytes() > int64(live) {
				r.t.Fatalf("the compacted log holds %d bytes, its live records at most %d", kv.LogBytes(), live)
			}
		}
		return nil
	}
	switch m := r.m.(type) {
	case *ItemsetMiner:
		switch ev.op {
		case 'd':
			_, err = m.DeleteOldestBlock()
		case 'k':
			_, err = m.ChangeMinSupport(ev.minsup)
		case 'x':
			if _, err = m.ChangeMinSupport(1.5); err != nil && len(m.ModelBlocks()) == 0 {
				_, err = m.DeleteOldestBlock()
			}
			if err == nil {
				return errors.New("the model took a request outside its domain")
			}
			return nil
		default:
			_, err = m.AddBlock(r.sp.tx[i])
		}
	case *ItemsetWindowMiner:
		_, err = m.AddBlock(r.sp.tx[i])
	case *ClusterMiner:
		_, err = m.AddBlock(r.sp.pts[i])
	case *Monitor:
		_, err = m.AddBlock(r.sp.tx[i])
	}
	return err
}

func (r *simRun) isCkpt(i int) bool {
	op := r.sp.history[i].op
	return op == 'c' || op == 'a' && r.sp.every > 0 && int(r.post[i].t)%r.sp.every == 0
}

// bound is DESIGN §7's retention bound of the step that adds block id.
func (r *simRun) bound(id BlockID) BlockID {
	from := r.ckpt - BlockID(r.sp.w) + 1
	if r.sp.every > 0 {
		from = min(from, id-BlockID(r.sp.w+r.sp.every)+2)
	}
	return from
}

// do runs event i and reports whether it succeeded.
func (r *simRun) do(i int) bool {
	ev, pre := r.sp.history[i], r.m.T()
	r.logf("%c@%d", ev.op, pre) // the event and the position it starts from
	if err := r.apply(ev, int(pre)); err != nil {
		r.failed(fmt.Sprintf("event %d", i), err)
		r.covered = append(r.covered, map[bool]string{true: "crash ", false: "fail "}[r.fault.crash]+string(ev.op))
		if r.fault.crash && i < r.reached {
			r.covered = append(r.covered, "crash in a re-feed")
		}
		r.checkUnusable(pre, ev.op)
		return false
	}
	r.reached = max(r.reached, i+1)
	if r.fired() && !r.fault.crash { // the step absorbed the failed operation
		r.fault, r.fires = nil, r.fires+1
	}
	if ev.op == 'a' {
		r.floor, r.last = max(r.floor, r.bound(pre+1)), pre+1
	}
	if r.isCkpt(i) {
		r.ckpt = r.post[i].t
	}
	r.check(r.post[i])
	return true
}

func (r *simRun) state() simState {
	st := simState{t: r.m.T(), first: 1, minsup: r.sp.minsup}
	if m, ok := r.m.(*ItemsetMiner); ok { // it covers a run of blocks up to t
		st.first, st.minsup = st.t+1-BlockID(len(m.ModelBlocks())), m.Lattice().MinSupport
	}
	return st
}

// check holds the model to the state the history says it reflects:
// invariant 1 (the oracle, or the twin's model in st) and invariant 4 (the
// blocks stored: every one, or for a window kind those from the retention
// bound on, and no more pair indexes cached than blocks stored).
func (r *simRun) check(st simState) {
	t, twin := r.t, r.twin == nil
	t.Helper()
	if got := r.state(); got != st {
		t.Fatalf("the model reflects %+v, the history %+v", got, st)
	}
	var model string
	switch m := r.m.(type) {
	case *ItemsetMiner:
		model = string(m.model.Encode())
		if twin {
			assertModelSound(t, "model", m.model)
			assertLatticeEqual(t, m.Lattice(), aprioriRef(t, r.sp.tx[st.first-1:st.t], st.minsup))
		}
	case *ItemsetWindowMiner:
		var sel [][][]Item
		for id := max(1, int(st.t)-r.sp.w+1); twin && id <= int(st.t); id++ {
			if r.sp.rel.BitAt(id+r.sp.w-int(st.t)) || r.sp.bits != nil && r.sp.bits[id-1] ||
				r.sp.rel.Len() == 0 && r.sp.bits == nil {
				sel = append(sel, r.sp.tx[id-1])
			}
		}
		for slot, s := range m.g.Slots() {
			model += string(s.Encode())
			if twin {
				assertModelSound(t, fmt.Sprintf("slot %d", slot), s)
			}
		}
		if twin {
			assertLatticeEqual(t, m.Current(), aprioriRef(t, sel, r.sp.minsup))
		}
		if n := m.tids.CachedPairIndexes(); n > int(st.t-r.floor)+1 {
			t.Fatalf("%d pair indexes cached, %d blocks stored", n, st.t-r.floor+1)
		}
	case *ClusterMiner:
		model = fmt.Sprint(m.Clusters())
	case *Monitor:
		model = fmt.Sprint(m.Patterns(), m.AllSequences())
	}
	if twin {
		r.models[st] = model
	} else if model != r.twin.models[st] {
		t.Fatalf("in %+v the model differs from the twin's", st)
	}
	if r.k.kind != 'c' { // a cluster kind stores no transactions
		from := BlockID(1) // an unrestricted kind keeps every block
		if r.k.kind == 'w' {
			from = r.floor
		}
		checkRetained(t, r.base, from, st.t)
	}
}

// checkUnusable is invariant 3: after a failed step or mutation the model
// refuses every step, mutation and checkpoint; after any failed event it
// stays where it was and writes nothing. A failed checkpoint changed no
// model: one that failed before its commit leaves it usable, one whose
// commit failed does not, so neither is held to refusals here.
func (r *simRun) checkUnusable(pre BlockID, op byte) {
	writes := r.base.Stats().Writes
	for _, ev := range []simEvent{{op: 'a'}, {op: 'c'}, {op: 'k', minsup: 0.5}} {
		if op == 'c' || ev.op == 'k' && r.k.kind != 'i' { // only an ItemsetMiner mutates
			continue
		}
		if err := r.apply(ev, 0); err == nil || !strings.Contains(err.Error(), "unusable") {
			r.t.Fatalf("a failed model took %c: %v", ev.op, err)
		}
	}
	if r.m.T() != pre || r.base.Stats().Writes != writes {
		r.t.Fatalf("a failed model moved from T=%d to %d, or wrote", pre, r.m.T())
	}
}

// restart reopens the surviving bytes after event i failed, resumes, checks
// invariants 2 and 5, and returns the event to run next: the one after the
// last checkpoint of the history up to i that the restored model reflects.
func (r *simRun) restart(i int) int {
	t := r.t
	t.Helper()
	for ok := false; !ok; ok = r.open(true) {
		r.base = r.reopen()
		r.arm()
	}
	if keys, err := r.base.Keys(diskio.StagingPrefix); err != nil || len(keys) > 0 {
		t.Fatalf("the restart left %v under %s (%v)", keys, diskio.StagingPrefix, err)
	}
	if rep, err := diskio.ScrubChain(diskio.NewChecksumStore(r.base), ""); err != nil || len(rep.Quarantined) > 0 {
		t.Fatalf("a scrub after the restart: %v (%v)", rep, err)
	}

	st := r.state()
	v, err := diskio.NewChecksumStore(r.base).Get(simHookKey)
	if err != nil && !errors.Is(err, diskio.ErrNotFound) {
		t.Fatalf("reading the hook record: %v", err)
	}
	h, _, _ := diskio.ReadUvarint(v) // none reads as 0
	// The record names the last step that committed; the failed step's
	// transaction may have committed all the same.
	rolled := BlockID(h) != r.last && r.sp.history[i].op == 'a' && r.post[i].t == BlockID(h)
	if BlockID(h) < st.t || BlockID(h) != r.last && !rolled || r.sp.every == 1 && BlockID(h) != st.t {
		t.Fatalf("the hook record names block %d: restored to %d, block %d committed last", h, st.t, r.last)
	}
	if rolled { // its expiry went with it
		r.last, r.floor = BlockID(h), max(r.floor, r.bound(BlockID(h)))
	}

	j := i
	for ; j >= 0 && !(r.isCkpt(j) && r.post[j] == st); j-- {
	}
	if j < 0 && st != (simState{first: 1, minsup: r.sp.minsup}) {
		t.Fatalf("restored to %+v, which no checkpoint up to event %d left", st, i)
	}
	r.ckpt = st.t
	r.logf("restart at T=%d", st.t)
	r.check(st)
	return j + 1
}

// report prints, once t failed, the command that replays it alone (and
// only the fault-free run, with sub "/^$") and the log of *r.
func report(t *testing.T, r **simRun, sub string) {
	t.Cleanup(func() {
		if t.Failed() && !(*r).passed {
			run := "^" + strings.ReplaceAll(regexp.QuoteMeta(t.Name()), "/", "$/^") + "$" + sub
			t.Logf("replay: go test -run '%s' .\nlog: %s", run, strings.Join((*r).log, " "))
		}
	})
}

// simSchedule runs the schedule seed draws for kind k on backend be, and
// returns it. dense is the kind's crash-sweep twin on be.
func simSchedule(t *testing.T, k simKind, be sweepBackend, seed int64, dense *simRun) *simRun {
	r := &simRun{t: t, k: k, be: be, twin: dense}
	report(t, &r, "")
	rng := rand.New(rand.NewSource(seed))
	if seed < simRandom {
		r.sp, r.faults = dense.sp, []simFault{{crash: true, k: int(seed)}}
		if rng.Intn(3) == 0 && strings.HasPrefix(be.name, "mem") {
			r.faults = append(r.faults, simFault{rng.Intn(3) > 0, rng.Intn(int(dense.fs.Ops()))})
		}
		return r.run()
	}
	r.sp, r.twin = drawSpec(k, rng), nil
	twin := r.run()
	r = &simRun{t: t, k: k, be: be, sp: twin.sp, twin: twin}
	for range []int{0, 1, 2 + rng.Intn(2)}[(seed-simRandom)%3] {
		r.faults = append(r.faults, simFault{rng.Intn(3) > 0, rng.Intn(int(twin.fs.Ops()))})
	}
	if len(r.faults) == 0 {
		return twin
	}
	return r.run()
}

// TestSimulate runs every kind's schedules on every backend: the crash
// sweep at every operation index on the mem rows and at up to 40 (8 under
// -short) spread over the run on the disk rows, and the drawn schedules.
// Every row's fault-free store equals, key for key, that of the first row
// that ran the same workload, so a mem row and the disk rows agree wherever
// their crash sweeps share one. A full run must cover each of: a schedule
// that crashed twice or in a re-feed; a crash and a failed operation inside
// DeleteOldestBlock and inside ChangeMinSupport (a lowering one: raising κ
// reads nothing); a window kind checkpointing only on request; a kvfile
// compaction of a window's ECUT+ pair lists.
func TestSimulate(t *testing.T) {
	var mu sync.Mutex
	var rows, listed, ran int
	seen := map[string]int{}
	note := func(r *simRun) {
		mu.Lock()
		defer mu.Unlock()
		ran++
		for _, fact := range r.covered {
			seen[fact]++
		}
	}
	for _, k := range simKinds {
		t.Run(k.name, func(t *testing.T) {
			first := map[string]map[string]string{} // the first store of each workload, mem or disk
			for _, be := range sweepBackends() {
				t.Run(be.name, func(t *testing.T) {
					disk := !strings.HasPrefix(be.name, "mem")
					dense := &simRun{t: t, k: k, be: be, sp: denseSpec(k, disk)}
					workload := fmt.Sprint(*dense.sp)
					report(t, &dense, "/^$")
					dense.run()
					if first[workload] == nil {
						first[workload] = dense.dump
					}
					if d := diskio.DiffDumps(dense.dump, first[workload]); d != "" {
						t.Fatalf("the fault-free store diverges from the first backend's:\n%s", d)
					}
					// The expiry sweeps delete item lists too, and under ECUT+ pair lists.
					lists := map[CountingStrategy]string{PTScan: "txblock/", ECUT: "tid/", ECUTPlus: "tid2idx/"}[k.strategy]
					if k.kind == 'w' && !strings.Contains(fmt.Sprint(slices.Sorted(maps.Keys(dense.dump))), lists) {
						t.Fatalf("the fault-free run stored no %s key", lists)
					}
					dense.passed = true
					note(dense)
					ops := int(dense.fs.Ops())
					limit := map[bool]int{false: ops, true: 40}[disk || testing.Short()]
					if disk && testing.Short() {
						limit = 8
					}
					var seeds []int64
					for s := 0; s < ops && (k.disk || !disk); s += (ops-1)/limit + 1 {
						seeds = append(seeds, int64(s))
					}
					// simRandom+8 crashes and simRandom+49 fails inside DeleteOldestBlock.
					drawn := []int64{simRandom, simRandom + 1, simRandom + 2, simRandom + 3, simRandom + 4, simRandom + 5, simRandom + 8, simRandom + 49}
					switch {
					case disk:
						drawn = drawn[2:3] // two or three faults
					case testing.Short():
						drawn = drawn[:3]
					}
					seeds = append(seeds, drawn...)
					rows, listed = rows+1, listed+1+len(seeds)
					for _, seed := range seeds {
						t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
							t.Parallel()
							note(simSchedule(t, k, be, seed, dense))
						})
					}
				})
			}
		})
	}
	for _, fact := range []string{"crash twice", "crash in a re-feed", "crash d", "crash k", "fail d", "fail k",
		"window N=0", "window compaction of pair lists"} {
		if rows == len(simKinds)*len(sweepBackends()) && ran == listed && !testing.Short() && seen[fact] == 0 {
			t.Errorf("no schedule covered %q: %v", fact, seen)
		}
	}
}

// TestSimulateReplaysItsLog: a seed is its schedule. Two runs of one seed
// log the same events, faults and restarts.
func TestSimulateReplaysItsLog(t *testing.T) {
	a := simSchedule(t, simKinds[1], sweepBackends()[1], simRandom+2, nil).log
	b := simSchedule(t, simKinds[1], sweepBackends()[1], simRandom+2, nil).log
	if !slices.Equal(a, b) || !slices.ContainsFunc(a, func(s string) bool { return strings.HasPrefix(s, "restart") }) {
		t.Fatalf("one seed, two logs:\n%v\n%v", a, b)
	}
}
