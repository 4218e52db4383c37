package ha

import (
	"bytes"
	"context"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestAbsorbRejectsCorruptDelta: the journal keeps frames as they came
// and promotion stores their load pairs verbatim, so the range checks
// and the canonical-pair rule run when a frame is absorbed — a bad
// frame is a resync, never a panic or a wrong record at promotion.
func TestAbsorbRejectsCorruptDelta(t *testing.T) {
	const n = 40
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
		sb := &standby{cfg: standbyConfig{treeN: n, maxJournal: 8}}
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

// TestSparseJournalFootprint: 10 000 sparse place events on a
// 255-switch pod. One dense load vector per event was 2 KB of journal
// per commit (20 MB here, and the whole heap of a sharded daemon under
// churn); the frames as received are a few hundred bytes.
func TestSparseJournalFootprint(t *testing.T) {
	const events, racks = 10000, 8
	n := topology.MustBT(256).N()
	sb := &standby{cfg: standbyConfig{treeN: n, maxJournal: defaultMaxJournal}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= events; i++ {
		d := &wire.LeaseDelta{Shard: 1, Epoch: 1, Seq: uint64(i), Op: wire.DeltaPlace, ID: uint64(i), K: racks}
		d.SetPhi(float64(i))
		for r := 0; r < racks; r++ {
			v := uint32((i*31)%(n-racks*17) + r*17) // ascending, as a primary emits them
			d.Blue = append(d.Blue, v)
			d.LoadV = append(d.LoadV, v)
			d.LoadN = append(d.LoadN, uint32(1+r))
		}
		if err := sb.absorb(asReceived(t, d)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(sb.journal) != events {
		t.Fatalf("journal holds %d events, want %d", len(sb.journal), events)
	}
	const limit = 4 << 20
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= limit {
		t.Fatalf("journal of %d sparse events retains %d bytes, want < %d", events, grown, limit)
	}
	runtime.KeepAlive(sb)
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
		_, seq, journal, _, ok := sh.standbys[0].state()
		return ok && seq+uint64(len(journal)) >= 1
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
