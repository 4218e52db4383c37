package ha

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soar/internal/sched"
	"soar/internal/topology"
	"soar/internal/wire"
)

// asReceived round-trips a frame through the codec, so the test holds
// exactly the allocation a standby holds after wire.Read.
func asReceived(t *testing.T, d *wire.LeaseDelta) *wire.LeaseDelta {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	m, err := wire.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m.(*wire.LeaseDelta)
}

// bareStandby is a standby with no network side: the table a first
// checkpoint of base would have left it, ready for absorb.
func bareStandby(t *testing.T, tree *topology.Tree, base *sched.Scheduler) *standby {
	t.Helper()
	var ckpt bytes.Buffer
	seq, err := base.CheckpointSeq(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := sched.RestoreTable(tree, &ckpt, seq)
	if err != nil {
		t.Fatal(err)
	}
	return &standby{cfg: standbyConfig{tree: tree}, tab: tab}
}

// emptyStandby is bareStandby over a fresh table at the given capacity.
func emptyStandby(t *testing.T, tree *topology.Tree, capacity int) *standby {
	t.Helper()
	base := sched.New(tree, sched.Config{Workers: 1, Capacity: capacity})
	defer base.Close()
	return bareStandby(t, tree, base)
}

// assertUntouched proves a table a delta was refused by is what it was
// before: at sequence seq, holding none of ids, every slot of the ledger
// where the reference has it — and still good for the delta that should
// have come instead.
func assertUntouched(t *testing.T, name string, tab *sched.Table, seq uint64, residual []int, ids ...int64) {
	t.Helper()
	if tab.Seq() != seq || !reflect.DeepEqual(tab.Residual(), residual) || tab.Audit() != nil {
		t.Errorf("%s: the refused delta mutated the table (seq %d, audit %v)", name, tab.Seq(), tab.Audit())
	}
	for _, id := range ids {
		if _, err := tab.Lookup(id); err == nil {
			t.Errorf("%s: the refused delta filed lease %d", name, id)
		}
	}
}

// TestAbsorbRejectsCorruptDelta: a delta's load pairs are stored as they
// came and its blues charged against the ledger, so the range checks and
// the canonical-pair rule run when the frame is absorbed, at the
// table's one door — a bad frame is a resync, never a panic or a wrong
// record at promotion. A refused frame takes the table off offer and
// leaves it untouched; a sequence gap, which says nothing against the
// table, keeps it electable.
func TestAbsorbRejectsCorruptDelta(t *testing.T) {
	tree := topology.CompleteKAry(3, 4)
	n := uint32(tree.N()) // 40
	good := func() *wire.LeaseDelta {
		return &wire.LeaseDelta{Seq: 1, Op: wire.DeltaPlace, ID: 7, K: 2,
			Blue: []uint32{3, 9}, LoadV: []uint32{20, 39}, LoadN: []uint32{1, 5}}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*wire.LeaseDelta)
		want    string
	}{
		{"blue switch out of range", func(d *wire.LeaseDelta) { d.Blue[1] = n }, "leases switch 40 of 40"},
		{"blue switch twice", func(d *wire.LeaseDelta) { d.Blue[1] = d.Blue[0] }, "leases switch 3 twice"},
		{"load switch out of range", func(d *wire.LeaseDelta) { d.LoadV[0] = n + 3 }, "load switch 43 of 40"},
		{"unknown op", func(d *wire.LeaseDelta) { d.Op = wire.DeltaMigrate + 1 }, "(op 4): unknown operation"},
		{"load pairs unmatched", func(d *wire.LeaseDelta) { d.LoadN = d.LoadN[:1] }, "2 load switches for 1 counts"},
		{"load switch twice", func(d *wire.LeaseDelta) { d.LoadV[1] = d.LoadV[0] }, "load switch 20 after 20"},
		{"load switches descending", func(d *wire.LeaseDelta) { d.LoadV[0], d.LoadV[1] = 39, 20 }, "load switch 20 after 39"},
		{"load count zero", func(d *wire.LeaseDelta) { d.LoadN[1] = 0 }, "load count 0 at switch 39"},
		{"load count overflows int32", func(d *wire.LeaseDelta) { d.LoadN[0] = math.MaxInt32 + 1 }, "load count 2147483648"},
		{"sequence gap", func(d *wire.LeaseDelta) { d.Seq = 3 }, "sequence gap"},
	} {
		sb := emptyStandby(t, tree, 0)
		tab, residual := sb.tab, sb.tab.Residual()
		d := good()
		tc.corrupt(d)
		if err := sb.absorb(d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: absorb = %v, want an error naming %q", tc.name, err, tc.want)
		}
		assertUntouched(t, tc.name, tab, 0, residual, 7)
		if _, ok := sb.state(); ok != (tc.name == "sequence gap") {
			t.Errorf("%s: table on offer = %v after the refusal", tc.name, ok)
		}
		if err := tab.Apply(good()); err != nil {
			t.Errorf("%s: clean frame after the bad one: %v", tc.name, err)
		}
	}
}

// TestStandbyStateBoundedByLiveLeases: 50 000 commits of a serving
// scheduler on a 255-switch pod with at most 200 leases live, absorbed
// as they come off the wire. What the standby holds is a table, so it
// follows the live set by construction — the heap stays under a
// megabyte where a journal of the frames would have been the replica's
// whole heap — and what it holds is the primary's state: at every
// 1000th delta its table equals the scheduler's lease for lease, slot
// for slot, at the same sequence.
func TestStandbyStateBoundedByLiveLeases(t *testing.T) {
	const events, maxLive, racks = 50000, 200, 8
	tree := topology.MustBT(256)
	n := tree.N()
	var pending []*wire.LeaseDelta // the hook runs on ref's dispatcher, before Place/Release return
	ref := sched.New(tree, sched.Config{Workers: 1, Capacity: 16,
		Journal: func(d *wire.LeaseDelta) { pending = append(pending, d) }})
	defer ref.Close()
	sb := bareStandby(t, tree, ref)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	rng := rand.New(rand.NewSource(22))
	load := make([]int, n)
	var lease sched.Lease
	var live []int64
	for seq := uint64(1); seq <= events; seq++ {
		if len(live) == maxLive || (len(live) > 0 && rng.Intn(4) == 0) {
			i := rng.Intn(len(live))
			if err := ref.Release(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			base := rng.Intn(n - racks*17)
			for r := 0; r < racks; r++ {
				load[base+r*17] = 1 + r
			}
			if err := ref.PlaceInto(load, 2, &lease); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < racks; r++ {
				load[base+r*17] = 0
			}
			live = append(live, lease.ID)
		}
		if len(pending) != 1 || pending[0].Seq != seq {
			t.Fatalf("commit %d journaled %d records", seq, len(pending))
		}
		if err := sb.absorb(asReceived(t, pending[0])); err != nil {
			t.Fatalf("absorb delta %d: %v", seq, err)
		}
		pending = pending[:0]
		if seq%1000 != 0 {
			continue
		}
		if got := sb.tab.Seq(); got != ref.JournalSeq() {
			t.Fatalf("delta %d: table at sequence %d, reference %d", seq, got, ref.JournalSeq())
		}
		if !reflect.DeepEqual(sb.tab.Residual(), ref.Residual()) {
			t.Fatalf("delta %d: table and reference ledgers diverge", seq)
		}
		for _, id := range live {
			want, err := ref.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := sb.tab.Lookup(id); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("delta %d, lease %d: table %+v (%v), reference %+v", seq, id, got, err, want)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limit = 1 << 20
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	st, ok := sb.state()
	t.Logf("%d deltas, ≤ %d live: %d bytes retained, %d applied, table at sequence %d", events, maxLive, grown, st.applied, st.seq)
	if grown >= limit {
		t.Fatalf("standby retains %d bytes after %d deltas with ≤ %d live, want < %d", grown, events, maxLive, limit)
	}
	if !ok || st.seq != events || st.applied != events {
		t.Fatalf("state ok=%v: %d deltas applied, table at sequence %d, want %d", ok, st.applied, st.seq, events)
	}
	if err := sb.tab.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAbsorbRejectsLedgerViolation: a delta can be well-formed — every
// switch in range, the pairs canonical — and still be impossible against
// the ledger. Such a frame used to wait in a journal for a replay, at
// worst for a promotion on a shard that by then had no primary; now the
// table refuses it at that delta: absorb returns the error (the stream
// ends, as for a sequence gap), what was applied before stands
// unmodified, and the table goes off offer rather than up for election.
func TestAbsorbRejectsLedgerViolation(t *testing.T) {
	tree := topology.CompleteKAry(3, 4)
	place := func(id uint64, blue uint32) *wire.LeaseDelta {
		return &wire.LeaseDelta{Op: wire.DeltaPlace, ID: id, K: 1,
			Blue: []uint32{blue}, LoadV: []uint32{30}, LoadN: []uint32{2}}
	}
	for _, tc := range []struct {
		name string
		feed []*wire.LeaseDelta // the last one violates the ledger
		want string
	}{
		{"release of an unknown lease",
			[]*wire.LeaseDelta{place(1, 3), {Op: wire.DeltaRelease, ID: 99}},
			"tenant 99 is not live"},
		{"place on an exhausted switch",
			[]*wire.LeaseDelta{place(1, 3), place(2, 3)},
			"tenant 2 needs exhausted switch 3"},
		{"migration onto an exhausted switch",
			[]*wire.LeaseDelta{place(1, 3), place(2, 5), {Op: wire.DeltaMigrate, ID: 2, Blue: []uint32{3}}},
			"tenant 2 needs exhausted switch 3"},
	} {
		sb := emptyStandby(t, tree, 1)
		tab := sb.tab
		last := len(tc.feed) - 1
		for i, d := range tc.feed[:last] {
			d.Seq = uint64(i + 1)
			if err := sb.absorb(d); err != nil {
				t.Fatalf("%s: absorb %d: %v", tc.name, d.Seq, err)
			}
		}
		residual := tab.Residual()
		bad := tc.feed[last]
		bad.Seq = uint64(last + 1)
		if err := sb.absorb(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: absorb = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if _, ok := sb.state(); ok {
			t.Fatalf("%s: the table that refused a delta is still on offer", tc.name)
		}
		assertUntouched(t, tc.name, tab, uint64(last), residual, 99)
		if l, err := tab.Lookup(1); err != nil || !reflect.DeepEqual(l.Blue, []int{3}) {
			t.Fatalf("%s: lease 1 after the refusal: %+v (%v)", tc.name, l, err)
		}
		if err := sb.absorb(&wire.LeaseDelta{Seq: bad.Seq + 1, Op: wire.DeltaRelease, ID: 1}); err == nil {
			t.Fatalf("%s: a standby without a table absorbed a delta", tc.name)
		}
	}
}

// captureLog collects a cluster's log lines for tests that assert on
// what the operator would have seen.
type captureLog struct {
	mu    sync.Mutex
	lines []string
}

func (c *captureLog) logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

func (c *captureLog) contains(sub string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// churnShard commits pairs place/release pairs on shard si through the
// cluster's router: 2×pairs journal events.
func churnShard(t *testing.T, cl *Cluster, si, pairs int) {
	t.Helper()
	load := podLoad(cl.Partitioning(), si)
	for i := 0; i < pairs; i++ {
		l, err := cl.Place(load, 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Release(l.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// standbysCaughtUp reports whether every standby of shard si has
// absorbed the primary's whole journal.
func standbysCaughtUp(cl *Cluster, si int) bool {
	sh := cl.shards[si]
	primSeq := sh.scheduler().JournalSeq()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, sb := range sh.standbys {
		if st, ok := sb.state(); !ok || st.seq < primSeq {
			return false
		}
	}
	return true
}

// assertTableMirrors proves a running standby's table is the scheduler's
// state: same sequence, same ledger, every one of ids the same lease —
// read under the standby's lock, without promoting anything.
func assertTableMirrors(t *testing.T, sb *standby, prim *sched.Scheduler, ids []int64) {
	t.Helper()
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.tab == nil {
		t.Fatalf("standby %d holds no table", sb.cfg.node)
	}
	if got, want := sb.tab.Seq(), prim.JournalSeq(); got != want {
		t.Fatalf("standby %d at sequence %d, primary at %d", sb.cfg.node, got, want)
	}
	if !reflect.DeepEqual(sb.tab.Residual(), prim.Residual()) {
		t.Fatalf("standby %d and primary ledgers diverge", sb.cfg.node)
	}
	for _, id := range ids {
		_, local := SplitID(id)
		want, werr := prim.Lookup(local)
		got, gerr := sb.tab.Lookup(local)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("standby %d, lease %d: table %+v (%v), primary %+v (%v)", sb.cfg.node, local, got, gerr, want, werr)
		}
	}
	if err := sb.tab.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverAfterLongChurn: promotion from a table that has followed
// its primary through far more commits than it holds leases. More than
// four thousand commits of churn go through shard 0 around a standing
// set of leases, every one applied by both standbys as it arrived;
// after the crash every acknowledged lease is there with the placement
// its client was told, the books balance and the journal sequence
// carries on from where the dead primary stopped.
func TestFailoverAfterLongChurn(t *testing.T) {
	tr := topology.CompleteKAry(3, 3)
	opts := fastOpts()
	opts.Sched.Capacity = 8
	var log captureLog
	opts.Logf = log.logf
	cl, err := NewCluster(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Partitioning()
	// Both standbys hold the empty checkpoint before the first commit, so
	// every commit below reaches them as a delta.
	waitFor(t, 5*time.Second, "standbys attached", func() bool { return standbysCaughtUp(cl, 0) })

	standing := make(map[int64]*sched.Lease)
	var ids []int64
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			l, err := cl.Place(podLoad(p, 0), 1+i)
			if err != nil {
				t.Fatal(err)
			}
			standing[l.ID] = l
			ids = append(ids, l.ID)
		}
		churnShard(t, cl, 0, 512)
		// In-process commits outrun a standby's socket; a round is kept
		// under the hub's buffer so no replica is kicked into a resync
		// and every delta below is one a standby applied as it arrived.
		waitFor(t, 10*time.Second, "replication drained", func() bool { return standbysCaughtUp(cl, 0) })
	}
	sh := cl.shards[0]
	primSeq := sh.scheduler().JournalSeq()
	if primSeq <= 4000 {
		t.Fatalf("only %d commits went through shard 0", primSeq)
	}
	sh.mu.Lock()
	for _, sb := range sh.standbys {
		if st, _ := sb.state(); uint64(st.applied) != primSeq {
			t.Errorf("standby %d applied %d of %d commits live", sb.cfg.node, st.applied, primSeq)
		}
		assertTableMirrors(t, sb, sh.scheduler(), ids)
	}
	sh.mu.Unlock()

	if cl.CrashPrimary(0) == nil {
		t.Fatal("no primary to crash")
	}
	waitFor(t, 10*time.Second, "promotion", func() bool {
		st := cl.Status()[0]
		return st.Epoch == 2 && st.PrimaryNode >= 0
	})
	if got := cl.Status()[0].Seq; got != primSeq {
		t.Fatalf("promoted primary is at sequence %d, the dead one stopped at %d", got, primSeq)
	}
	for id, want := range standing {
		got, err := cl.Lookup(id)
		if err != nil {
			t.Fatalf("lease %d lost in failover: %v", id, err)
		}
		if !reflect.DeepEqual(got.Blue, want.Blue) || math.Float64bits(got.Phi) != math.Float64bits(want.Phi) {
			t.Fatalf("lease %d across failover: %+v, client was told %+v", id, got, want)
		}
	}
	if err := cl.Audit(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Place(podLoad(p, 0), 2); err != nil {
		t.Fatal(err)
	}
	if got := cl.Status()[0].Seq; got != primSeq+1 {
		t.Fatalf("first commit of epoch 2 has sequence %d, want %d", got, primSeq+1)
	}
	if got := len(cl.shards[0].scheduler().LeaseIDs()); got != len(standing)+1 {
		t.Fatalf("shard 0 holds %d leases, want %d", got, len(standing)+1)
	}
	if !log.contains("promoted at epoch 2") || log.contains("stream ended") {
		t.Fatalf("log: %q", log.lines)
	}
}

// TestRefusedDeltaResyncs drives the early rejection end to end: a
// ledger-violating delta reaches a live standby, its table refuses it
// there and then and goes off offer, the stream ends, the standby
// re-attaches for a fresh checkpoint — and the promotion that would
// have failed on that delta succeeds, a thousand commits later.
func TestRefusedDeltaResyncs(t *testing.T) {
	tr := topology.CompleteKAry(3, 3)
	opts := fastOpts()
	opts.Replicas = 1
	var log captureLog
	opts.Logf = log.logf
	cl, err := NewCluster(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Partitioning()
	sh := cl.shards[0]

	keep, err := cl.Place(podLoad(p, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "first lease replicated", func() bool { return standbysCaughtUp(cl, 0) })
	sb := sh.standbys[0]
	st, _ := sb.state()
	bad := &wire.LeaseDelta{Seq: st.seq + 1, Op: wire.DeltaRelease, ID: 1 << 40}
	if err := sb.absorb(bad); err == nil || !strings.Contains(err.Error(), "is not live") {
		t.Fatalf("a release of an unknown lease: absorb = %v", err)
	}
	if _, ok := sb.state(); ok {
		t.Fatal("the table that refused a delta is still on offer")
	}

	// The next delta off the wire finds no table to extend: the stream
	// ends and the standby comes back with a fresh checkpoint.
	churnShard(t, cl, 0, 512)
	waitFor(t, 10*time.Second, "the stream to end", func() bool {
		return log.contains("stream ended: lease delta before a checkpoint")
	})
	waitFor(t, 10*time.Second, "re-attach", func() bool { return standbysCaughtUp(cl, 0) })
	sh.mu.Lock()
	assertTableMirrors(t, sb, sh.scheduler(), []int64{keep.ID})
	sh.mu.Unlock()

	if cl.CrashPrimary(0) == nil {
		t.Fatal("no primary to crash")
	}
	waitFor(t, 10*time.Second, "promotion", func() bool {
		st := cl.Status()[0]
		return st.Epoch == 2 && st.PrimaryNode >= 0
	})
	got, err := cl.Lookup(keep.ID)
	if err != nil {
		t.Fatalf("lease lost across the resync and the failover: %v", err)
	}
	if !reflect.DeepEqual(got.Blue, keep.Blue) || math.Float64bits(got.Phi) != math.Float64bits(keep.Phi) {
		t.Fatalf("lease across the resync and the failover: %+v, client was told %+v", got, keep)
	}
	if err := cl.Audit(); err != nil {
		t.Fatal(err)
	}
}

// gate makes shard 0's replication connections go deaf on demand: the
// connections that exist when cut is called read nothing more from
// their primary (a partition that drops frames but resets nothing)
// until they are closed. Connections dialed afterwards, and other
// shards, replicate undisturbed.
type gate struct{ cuts atomic.Int64 }

func (g *gate) cut() { g.cuts.Add(1) }

func (g *gate) dial(ctx context.Context, node int, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil || node/100 != 1 { // shard s's replicas are nodes (s+1)·100 + slot
		return c, err
	}
	return &gatedConn{Conn: c, gate: g, born: g.cuts.Load(), closed: make(chan struct{})}, nil
}

type gatedConn struct {
	net.Conn
	gate   *gate
	born   int64 // the gate's cut count when the connection was dialed
	once   sync.Once
	closed chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	if c.gate.cuts.Load() != c.born {
		<-c.closed
		return 0, net.ErrClosed
	}
	return c.Conn.Read(p)
}

func (c *gatedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestPromotedEpochNeverReissuesAckedID is the regression test for the
// failover soak's double-grant: a primary acknowledges a commit before
// any standby holds its delta, so when it dies the promoted standby's
// id counter is behind an id a client already owns. The new epoch must
// not hand that id out again.
func TestPromotedEpochNeverReissuesAckedID(t *testing.T) {
	tr := topology.CompleteKAry(3, 3)
	g := new(gate)
	opts := fastOpts()
	opts.Replicas = 1
	opts.Dial = g.dial
	cl, err := NewCluster(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Partitioning()
	sh := cl.shards[0]

	replicated, err := cl.Place(podLoad(p, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "first lease replicated", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		st, ok := sh.standbys[0].state()
		return ok && st.seq >= 1
	})

	// From here on the standby hears nothing: the next commit is
	// acknowledged to its client and replicated to no one.
	g.cut()
	lost, err := cl.Place(podLoad(p, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cl.CrashPrimary(0) == nil {
		t.Fatal("no primary to crash")
	}
	waitFor(t, 10*time.Second, "promotion", func() bool {
		st := cl.Status()[0]
		return st.Epoch == 2 && st.PrimaryNode >= 0
	})
	if _, err := cl.Lookup(lost.ID); err == nil {
		t.Fatal("the un-replicated lease survived the failover: the test partitioned nothing")
	}
	if _, err := cl.Lookup(replicated.ID); err != nil {
		t.Fatalf("replicated lease lost: %v", err)
	}

	for i := 0; i < 3; i++ {
		l, err := cl.Place(podLoad(p, 0), 1)
		if err != nil {
			t.Fatal(err)
		}
		if l.ID == lost.ID {
			t.Fatalf("epoch 2 re-issued lease id %d, which epoch 1 acknowledged to a client", l.ID)
		}
		if _, local := SplitID(l.ID); local < epochIDFloor(2) {
			t.Fatalf("epoch 2 issued local id %d, below its band at %d", local, epochIDFloor(2))
		}
	}
	if err := cl.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestUnsyncedStandbyNeverPromoted: when a primary dies and none of its
// standbys holds a table, the shard stays headless rather than serve
// an empty one. Shard 0's standbys attach, then each refuses a delta
// and drops its table; shard 1's never attach at all. Past the silence
// budget neither shard has changed epoch or promoted anyone, and both
// refuse admissions with ErrNoPrimary.
func TestUnsyncedStandbyNeverPromoted(t *testing.T) {
	tr := topology.CompleteKAry(3, 3)
	var refuse atomic.Bool
	var log captureLog
	opts := fastOpts()
	opts.RouteTimeout = 200 * time.Millisecond
	opts.Logf = log.logf
	opts.Dial = func(ctx context.Context, node int, addr string) (net.Conn, error) {
		// Shard s's replicas are nodes (s+1)·100 + slot.
		if node/100 == 2 || (node/100 == 1 && refuse.Load()) {
			return nil, errors.New("standby dial refused")
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	cl, err := NewCluster(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Partitioning()

	// Shard 0's standbys hear epoch 1, so their silence verdict counts;
	// then their tables go off offer and they cannot re-attach.
	if _, err := cl.Place(podLoad(p, 0), 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "shard 0 replicated", func() bool { return standbysCaughtUp(cl, 0) })
	refuse.Store(true)
	sh := cl.shards[0]
	sh.mu.Lock()
	standbys := append([]*standby(nil), sh.standbys...)
	sh.mu.Unlock()
	for _, sb := range standbys {
		st, _ := sb.state()
		if err := sb.absorb(&wire.LeaseDelta{Seq: st.seq + 1, Op: wire.DeltaRelease, ID: 1 << 40}); err == nil {
			t.Fatal("a release of an unknown lease was applied")
		}
	}

	for si := 0; si < 2; si++ {
		if cl.CrashPrimary(si) == nil {
			t.Fatalf("shard %d: no primary to crash", si)
		}
	}
	waitFor(t, 5*time.Second, "shard 0's silence verdict", func() bool {
		return log.contains("shard 0: silence verdict but no standby has state")
	})
	time.Sleep(2 * time.Duration(opts.MissBudget) * opts.Heartbeat) // and its retries

	for si := 0; si < 2; si++ {
		st := cl.Status()[si]
		if st.Epoch != 1 || st.Standbys != opts.Replicas {
			t.Errorf("shard %d: epoch %d with %d standbys, want epoch 1 with all %d", si, st.Epoch, st.Standbys, opts.Replicas)
		}
		if cl.ShardScheduler(si) != nil {
			t.Errorf("shard %d serves a table no standby held", si)
		}
		if _, err := cl.Place(podLoad(p, si), 2); !errors.Is(err, ErrNoPrimary) {
			t.Errorf("shard %d: Place = %v, want ErrNoPrimary", si, err)
		}
	}
	if n := cl.Metrics().Failovers(); n != 0 {
		t.Errorf("%d failovers without a replica to promote", n)
	}
	if _, err := cl.Place(podLoad(p, 2), 2); err != nil {
		t.Fatalf("shard 2 stopped serving: %v", err)
	}
}
