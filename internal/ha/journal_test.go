package ha

import (
	"bytes"
	"context"
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

	"soar/internal/obs"
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

// bareStandby is a standby with no network side: the state a first
// checkpoint of base would have left, ready for absorb.
func bareStandby(t *testing.T, tree *topology.Tree, base *sched.Scheduler) *standby {
	t.Helper()
	var ckpt bytes.Buffer
	seq, err := base.CheckpointSeq(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return &standby{
		cfg:       standbyConfig{tree: tree, met: NewMetrics(obs.NewRegistry())},
		haveState: true,
		ckpt:      ckpt.Bytes(),
		ckptSeq:   seq,
		lastSeq:   seq,
	}
}

// TestAbsorbRejectsCorruptDelta: the journal keeps frames as they came
// and promotion stores their load pairs verbatim, so the range checks
// and the canonical-pair rule run when a frame is absorbed — a bad
// frame is a resync, never a panic or a wrong record at promotion.
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
		{"blue switch out of range", func(d *wire.LeaseDelta) { d.Blue[1] = n }, "blue switch 40 of 40"},
		{"load switch out of range", func(d *wire.LeaseDelta) { d.LoadV[0] = n + 3 }, "load switch 43 of 40"},
		{"unknown op", func(d *wire.LeaseDelta) { d.Op = wire.DeltaMigrate + 1 }, "op 4 unknown"},
		{"load pairs unmatched", func(d *wire.LeaseDelta) { d.LoadN = d.LoadN[:1] }, "2 load switches for 1 counts"},
		{"load switch twice", func(d *wire.LeaseDelta) { d.LoadV[1] = d.LoadV[0] }, "load switch 20 after 20"},
		{"load switches descending", func(d *wire.LeaseDelta) { d.LoadV[0], d.LoadV[1] = 39, 20 }, "load switch 20 after 39"},
		{"load count zero", func(d *wire.LeaseDelta) { d.LoadN[1] = 0 }, "load count 0 at switch 39"},
		{"load count overflows int32", func(d *wire.LeaseDelta) { d.LoadN[0] = math.MaxInt32 + 1 }, "load count 2147483648"},
		{"sequence gap", func(d *wire.LeaseDelta) { d.Seq = 3 }, "journal gap"},
	} {
		sb := &standby{cfg: standbyConfig{tree: tree}}
		d := good()
		tc.corrupt(d)
		if err := sb.absorb(d); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: absorb = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if len(sb.journal) != 0 || sb.lastSeq != 0 {
			t.Errorf("%s: rejected frame reached the journal", tc.name)
		}
		if err := sb.absorb(good()); err != nil || len(sb.journal) != 1 {
			t.Errorf("%s: clean frame after the bad one: %v", tc.name, err)
		}
	}
}

// TestStandbyStateBoundedByLiveLeases: 50 000 place/release deltas on a
// 255-switch pod with at most 200 leases live, absorbed as they come
// off the wire. What the standby holds follows the live set — no absorb
// leaves the journal at the compaction floor, the heap stays under a
// megabyte where the uncompacted journal was the replica's whole
// heap — and what it holds is still the primary's state: replay
// of the final checkpoint + journal equals, lease for lease, a
// reference scheduler that applied every event in order.
func TestStandbyStateBoundedByLiveLeases(t *testing.T) {
	const events, maxLive, racks = 50000, 200, 8
	tree := topology.MustBT(256)
	n := tree.N()
	ref := sched.New(tree, sched.Config{Workers: 1, Capacity: 16})
	defer ref.Close()
	sb := bareStandby(t, tree, ref)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	rng := rand.New(rand.NewSource(22))
	var live []int64
	nextID := int64(1)
	for seq := uint64(1); seq <= events; seq++ {
		ev := sched.JournalEvent{Seq: seq}
		if len(live) == maxLive || (len(live) > 0 && rng.Intn(4) == 0) {
			i := rng.Intn(len(live))
			ev.Op, ev.ID = sched.JournalRelease, live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			ev.Op, ev.ID, ev.K = sched.JournalPlace, nextID, 2
			ev.Phi, ev.AllRed = float64(seq), 2*float64(seq)
			base := rng.Intn(n - racks*17)
			for r := 0; r < racks; r++ { // ascending, as a primary emits them
				ev.Load.V = append(ev.Load.V, uint32(base+r*17))
				ev.Load.N = append(ev.Load.N, uint32(1+r))
			}
			ev.Blue = []int{base, base + 17}
			live = append(live, nextID)
			nextID++
		}
		if err := ref.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
		d, err := deltaFromEvent(1, 1, ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := sb.absorb(asReceived(t, d)); err != nil {
			t.Fatalf("absorb event %d: %v", seq, err)
		}
		if len(sb.journal) >= compactMinEvents {
			t.Fatalf("journal holds %d events after event %d with %d leases live", len(sb.journal), seq, len(live))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limit = 1 << 20
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d events, ≤ %d live: %d bytes retained, %d compactions, peak journal %d events, checkpoint %d bytes",
		events, maxLive, grown, sb.compactions, sb.peakJournal, len(sb.ckpt))
	if grown >= limit {
		t.Fatalf("standby retains %d bytes after %d events with ≤ %d live, want < %d", grown, events, maxLive, limit)
	}
	if sb.peakJournal > compactMinEvents || sb.compactions < events/compactMinEvents {
		t.Fatalf("peak journal %d events, %d compactions over %d events", sb.peakJournal, sb.compactions, events)
	}

	st, ok := sb.state()
	if !ok || st.lastSeq != events || st.ckptSeq+uint64(len(st.journal)) != events {
		t.Fatalf("state ok=%v: checkpoint at %d + %d journal events, last %d, want %d", ok, st.ckptSeq, len(st.journal), st.lastSeq, events)
	}
	got := sched.New(tree, sched.Config{Workers: 1})
	defer got.Close()
	if err := replay(got, st.ckpt, st.ckptSeq, st.journal); err != nil {
		t.Fatal(err)
	}
	if got.JournalSeq() != ref.JournalSeq() {
		t.Fatalf("replayed sequence %d, reference %d", got.JournalSeq(), ref.JournalSeq())
	}
	if !reflect.DeepEqual(got.Residual(), ref.Residual()) {
		t.Fatal("replayed and reference ledgers diverge")
	}
	if g, w := len(got.LeaseIDs()), len(live); g != w {
		t.Fatalf("replayed state holds %d leases, reference %d", g, w)
	}
	for _, id := range live {
		want, err := ref.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if lease, err := got.Lookup(id); err != nil || !reflect.DeepEqual(lease, want) {
			t.Fatalf("lease %d: replayed %+v (%v), reference %+v", id, lease, err, want)
		}
	}
}

// TestCompactionRejectsLedgerViolation: a delta can pass checkDelta —
// every switch in range, the pairs canonical — and still be impossible
// against the ledger. Such a frame used to sit in the journal until a
// promotion replayed it, on a shard that by then had no primary; now
// the next compaction replays it, absorb returns the replay error (the
// stream ends, as for a sequence gap) and the state that failed is
// dropped rather than offered for election.
func TestCompactionRejectsLedgerViolation(t *testing.T) {
	tree := topology.CompleteKAry(3, 4)
	place := func(id uint64, blue uint32) *wire.LeaseDelta {
		return &wire.LeaseDelta{Op: wire.DeltaPlace, ID: id, K: 1,
			Blue: []uint32{blue}, LoadV: []uint32{30}, LoadN: []uint32{2}}
	}
	for _, tc := range []struct {
		name string
		bad  []*wire.LeaseDelta
		want string
	}{
		{"release of an unknown lease",
			[]*wire.LeaseDelta{{Op: wire.DeltaRelease, ID: 99}},
			"replay event 1: sched: apply: release of unknown tenant 99"},
		{"place on an exhausted switch",
			[]*wire.LeaseDelta{place(1, 3), place(2, 3)},
			"replay event 2"},
	} {
		base := sched.New(tree, sched.Config{Workers: 1, Capacity: 1})
		sb := bareStandby(t, tree, base)
		base.Close()
		feed := tc.bad
		for id := uint64(100); len(feed) < compactMinEvents; id++ {
			feed = append(feed, place(id, 5), &wire.LeaseDelta{Op: wire.DeltaRelease, ID: id})
		}
		for i, d := range feed[:compactMinEvents] {
			d.Seq = uint64(i + 1)
			err := sb.absorb(d)
			if i < compactMinEvents-1 {
				if err != nil {
					t.Fatalf("%s: absorb %d: %v", tc.name, d.Seq, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: compaction = %v, want an error naming %q", tc.name, err, tc.want)
			}
		}
		if _, ok := sb.state(); ok || sb.compactions != 0 {
			t.Fatalf("%s: the state that failed to replay is still on offer", tc.name)
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
		if st, ok := sb.state(); !ok || st.lastSeq < primSeq {
			return false
		}
	}
	return true
}

// TestFailoverAfterCompaction: promotion from a checkpoint the standby
// folded itself, not one the primary streamed. More than three
// compaction floors of churn go through shard 0 around a standing set
// of leases; after the crash every acknowledged lease is there with the
// placement its client was told, the books balance and the journal
// sequence carries on from where the dead primary stopped.
func TestFailoverAfterCompaction(t *testing.T) {
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

	standing := make(map[int64]*sched.Lease)
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			l, err := cl.Place(podLoad(p, 0), 1+i)
			if err != nil {
				t.Fatal(err)
			}
			standing[l.ID] = l
		}
		churnShard(t, cl, 0, compactMinEvents/2)
		// In-process commits outrun a standby's socket; a round is kept
		// under the hub's buffer so no replica is kicked into a resync
		// and every checkpoint below is one a standby folded itself.
		waitFor(t, 10*time.Second, "replication drained", func() bool { return standbysCaughtUp(cl, 0) })
	}
	sh := cl.shards[0]
	primSeq := sh.scheduler().JournalSeq()
	sh.mu.Lock()
	for _, sb := range sh.standbys {
		st, _ := sb.state()
		if sb.compactions < 3 || len(st.journal) >= compactMinEvents || st.ckptSeq == 0 {
			t.Errorf("standby %d after %d commits: %d compactions, checkpoint at %d, %d journal events",
				sb.cfg.node, primSeq, sb.compactions, st.ckptSeq, len(st.journal))
		}
	}
	sh.mu.Unlock()
	if primSeq <= 3*compactMinEvents {
		t.Fatalf("only %d commits went through shard 0", primSeq)
	}

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

// TestCompactionFailureResyncs drives the early rejection end to end:
// a ledger-violating delta lands in a live standby's journal, the next
// compaction refuses it, the stream ends with the replay error, the
// standby re-attaches for a fresh checkpoint — and the promotion that
// would have failed on that journal succeeds.
func TestCompactionFailureResyncs(t *testing.T) {
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
	bad := &wire.LeaseDelta{Seq: st.lastSeq + 1, Op: wire.DeltaRelease, ID: 1 << 40}
	if err := sb.absorb(bad); err != nil {
		t.Fatalf("a release of an unknown lease is a well-formed frame: absorb = %v", err)
	}

	churnShard(t, cl, 0, compactMinEvents/2)
	waitFor(t, 10*time.Second, "compaction to refuse the journal", func() bool {
		return log.contains("stream ended: ha: replay event")
	})
	waitFor(t, 10*time.Second, "re-attach", func() bool { return standbysCaughtUp(cl, 0) })
	if sb.compactions != 0 {
		t.Fatalf("the violating journal was folded %d times", sb.compactions)
	}

	if cl.CrashPrimary(0) == nil {
		t.Fatal("no primary to crash")
	}
	waitFor(t, 10*time.Second, "promotion", func() bool {
		st := cl.Status()[0]
		return st.Epoch == 2 && st.PrimaryNode >= 0
	})
	if _, err := cl.Lookup(keep.ID); err != nil {
		t.Fatalf("lease lost across the resync and the failover: %v", err)
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
		return ok && st.lastSeq >= 1
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
