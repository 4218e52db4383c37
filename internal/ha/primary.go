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
	// onDeposed fires (once, from a connection goroutine) when a peer
	// proves a higher epoch exists: the incarnation is stale and has
	// closed itself.
	onDeposed func(higher uint64)
}

// primary is one serving incarnation of a shard's control plane: the
// scheduler that commits, the hub that fans its journal out, and the
// listener standbys attach to. A primary never outlives its epoch —
// promotion builds a fresh incarnation around the promoted standby's
// scheduler.
type primary struct {
	sch  *sched.Scheduler
	feed *feed
	hub  *hub
	ln   net.Listener
	cfg  primaryConfig

	// crashed is shared with the shard's fence closure: setting it
	// makes every subsequent commit fail, the in-process stand-in for
	// the process dying between two batches.
	crashed *atomic.Bool

	deposed   atomic.Bool
	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// newPrimary starts serving replication on ln. The scheduler must have
// been created with feed.journal as its Journal hook and the shard's
// fence as its Fence.
func newPrimary(sch *sched.Scheduler, f *feed, h *hub, ln net.Listener, crashed *atomic.Bool, cfg primaryConfig) *primary {
	p := &primary{
		sch:     sch,
		feed:    f,
		hub:     h,
		ln:      ln,
		cfg:     cfg,
		crashed: crashed,
		stop:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	p.wg.Add(2)
	go p.acceptLoop()
	go p.heartbeatLoop()
	return p
}

func (p *primary) addr() string { return p.ln.Addr().String() }

// close tears the incarnation's network down: listener, heartbeats,
// every attached stream. The scheduler is NOT closed — a deposed
// primary's scheduler stays alive (fenced) so late commits are
// observable rejections, and the cluster closes it on shutdown.
func (p *primary) close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		p.ln.Close()
		p.hub.close()
		p.connMu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.connMu.Unlock()
	})
	p.wg.Wait()
}

// depose marks the incarnation stale (a peer proved epoch `higher`
// exists) and closes it. Idempotent; the callback fires once.
func (p *primary) depose(higher uint64) {
	if !p.deposed.CompareAndSwap(false, true) {
		return
	}
	if p.cfg.onDeposed != nil {
		p.cfg.onDeposed(higher)
	}
	// close waits for the calling goroutine via wg, so detach it.
	go p.close()
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

func (p *primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.connMu.Lock()
		p.conns[conn] = struct{}{}
		p.connMu.Unlock()
		p.wg.Add(1)
		go p.serve(conn)
	}
}

func (p *primary) dropConn(conn net.Conn) {
	p.connMu.Lock()
	delete(p.conns, conn)
	p.connMu.Unlock()
	conn.Close()
}

// serve runs one standby attachment: epoch handshake, checkpoint
// stream, then the live delta/heartbeat stream until the standby falls
// behind, the connection dies, or the incarnation closes.
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
	if hello.Epoch > p.cfg.epoch {
		// The standby has seen a newer primary: this incarnation is
		// stale. NACK by echoing its epoch, then self-depose.
		conn.SetWriteDeadline(time.Now().Add(hsTimeout))
		wire.Write(conn, &wire.Epoch{Shard: p.cfg.shard, Epoch: hello.Epoch, Node: uint32(p.cfg.node)})
		p.depose(hello.Epoch)
		return
	}
	conn.SetReadDeadline(time.Time{})

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

	// Reader: the only legal inbound frame after attach is an Epoch
	// NACK proving a newer incarnation; anything else (including EOF)
	// ends the stream.
	go func() {
		for {
			m, err := wire.Read(conn)
			if err != nil {
				conn.Close()
				return
			}
			if e, ok := m.(*wire.Epoch); ok && e.Shard == p.cfg.shard && e.Epoch > p.cfg.epoch {
				p.depose(e.Epoch)
				conn.Close()
				return
			}
		}
	}()

	for m := range sub.ch {
		conn.SetWriteDeadline(time.Now().Add(hsTimeout))
		if err := wire.Write(conn, m); err != nil {
			return
		}
	}
}
