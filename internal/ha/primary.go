package ha

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soar/internal/sched"
	"soar/internal/wire"
)

// feed adapts the scheduler's journal hook to the replication hub: the
// commit-log record is the LeaseDelta frame already, so it stamps the
// primary's shard and epoch on it and publishes it. Blue and load switch
// ids are shard-local: primary and standby deterministically build the
// same pod tree, so local ids agree. It runs on the scheduler's
// dispatcher goroutine, so it only does a non-blocking fan-out.
type feed struct {
	shard uint32
	epoch uint64
	hub   *hub
	met   *Metrics
	// seq tracks the last published sequence so heartbeats advertise
	// how far the commit stream has progressed.
	seq atomic.Uint64
}

func (f *feed) journal(d *wire.LeaseDelta) {
	d.Shard, d.Epoch = f.shard, f.epoch
	f.seq.Store(d.Seq)
	f.hub.publish(d)
	f.met.deltas.Inc()
}

// primaryConfig fixes one primary incarnation's identity.
type primaryConfig struct {
	shard     uint32
	epoch     uint64
	node      int
	heartbeat time.Duration
	met       *Metrics
	logf      func(format string, args ...any)
}

// primary is one serving incarnation of a shard's control plane: the
// scheduler that commits, the hub that fans its journal out, and the
// streams its standbys attach on. A primary never outlives its epoch —
// promotion builds a fresh incarnation around the promoted standby's
// scheduler.
type primary struct {
	sch  *sched.Scheduler
	feed *feed
	hub  *hub
	cfg  primaryConfig

	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// newPrimary starts the incarnation's heartbeats; standbys attach
// through adopt. The scheduler must have been created with feed.journal
// as its Journal hook and the shard's fence as its Fence.
func newPrimary(sch *sched.Scheduler, f *feed, h *hub, cfg primaryConfig) *primary {
	p := &primary{
		sch:   sch,
		feed:  f,
		hub:   h,
		cfg:   cfg,
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.heartbeatLoop()
	return p
}

// close tears the incarnation's network down: heartbeats and every
// attached stream. The scheduler is NOT closed — a retired primary's
// scheduler stays alive (fenced) so late commits are observable
// rejections, and the cluster closes it on shutdown.
func (p *primary) close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		p.hub.close()
		p.connMu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.connMu.Unlock()
	})
	p.wg.Wait()
}

func (p *primary) heartbeatLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.hub.publish(&wire.Heartbeat{
				Shard: p.cfg.shard,
				Epoch: p.cfg.epoch,
				Seq:   p.feed.seq.Load(),
			})
			p.cfg.met.heartbeats.Inc()
		}
	}
}

// adopt serves one standby attachment on conn, the primary's end of
// its stream; an incarnation that has closed closes conn instead.
func (p *primary) adopt(conn net.Conn) {
	p.connMu.Lock()
	select {
	case <-p.stop:
		p.connMu.Unlock()
		conn.Close()
		return
	default:
	}
	p.conns[conn] = struct{}{}
	p.wg.Add(1) // under connMu: close sweeps conns before it waits
	p.connMu.Unlock()
	go p.serve(conn)
}

func (p *primary) dropConn(conn net.Conn) {
	p.connMu.Lock()
	delete(p.conns, conn)
	p.connMu.Unlock()
	conn.Close()
}

// serve runs one standby attachment: epoch handshake, checkpoint
// stream, then the live delta/heartbeat stream until the standby falls
// behind, the connection dies, or the incarnation closes. Nothing is
// read after the hello, and its epoch changes nothing here: the shard's
// epoch register is the only fence. A dead standby ends the stream at
// the next write error or write deadline; a heartbeat is written every
// period.
func (p *primary) serve(conn net.Conn) {
	defer p.wg.Done()
	defer p.dropConn(conn)

	// Handshake under a deadline so half-open or chaos-deadened
	// connections cannot pin the goroutine.
	hsTimeout := 8 * p.cfg.heartbeat
	conn.SetReadDeadline(time.Now().Add(hsTimeout))
	hello, err := wire.ReadTyped[*wire.Epoch](conn)
	if err != nil || hello.Shard != p.cfg.shard {
		return
	}
	p.cfg.met.attaches.Inc()

	// Subscribe BEFORE snapshotting: every event committed after the
	// snapshot's sequence is then guaranteed to reach the buffer (the
	// standby skips the prefix the checkpoint already covers).
	sub := p.hub.subscribe()
	if sub == nil {
		return
	}
	defer p.hub.unsubscribe(sub)

	var ckpt bytes.Buffer
	seq, err := p.sch.CheckpointSeq(&ckpt)
	if err != nil {
		p.cfg.logf("ha: shard %d: checkpoint for standby failed: %v", p.cfg.shard, err)
		return
	}
	conn.SetWriteDeadline(time.Now().Add(hsTimeout))
	if err := wire.Write(conn, &wire.Epoch{Shard: p.cfg.shard, Epoch: p.cfg.epoch, Node: uint32(p.cfg.node)}); err != nil {
		return
	}
	offer := &wire.CkptOffer{Shard: p.cfg.shard, Epoch: p.cfg.epoch, Seq: seq, Bytes: uint64(ckpt.Len())}
	if err := wire.Write(conn, offer); err != nil {
		return
	}
	if _, err := conn.Write(ckpt.Bytes()); err != nil {
		return
	}
	p.cfg.met.ckptStreams.Inc()

	for m := range sub.ch {
		conn.SetWriteDeadline(time.Now().Add(hsTimeout))
		if err := wire.Write(conn, m); err != nil {
			return
		}
	}
}
