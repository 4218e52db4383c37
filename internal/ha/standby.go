package ha

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soar/internal/sched"
	"soar/internal/topology"
	"soar/internal/wire"
)

// maxCkptStream bounds the checkpoint size a standby will accept from
// an offer — a corrupt or hostile primary cannot make it allocate
// unboundedly. Real checkpoints are a few MB even for large fabrics.
const maxCkptStream = 256 << 20

// standbyConfig fixes one warm standby's identity and cadence.
type standbyConfig struct {
	shard uint32
	node  int
	// tree is the shard's pod tree, the one the replica's table is over.
	tree       *topology.Tree
	heartbeat  time.Duration
	missBudget int
	dial       func(ctx context.Context, node int, addr string) (net.Conn, error)
	logf       func(format string, args ...any)
	// onSilence fires (async, at most once per heartbeat budget) when
	// the standby has heard nothing from any primary for the full
	// missed-heartbeat budget. The shard uses it as the failover
	// trigger; repeated fires during continued silence let a failed
	// promotion retry.
	onSilence func(lastEpoch uint64)
}

// standby is one warm replica: a live lease table. It attaches to the
// shard's primary, restores the offered checkpoint into a fresh table —
// a bad checkpoint is refused here, not at promotion — and applies each
// lease delta as it arrives, so what it holds is always the primary's
// state as of the last delta, bounded by the live leases, and promotion
// is an audit and "serve this table". It builds no scheduler.
type standby struct {
	cfg standbyConfig

	addr atomic.Value // string: current primary address

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// lastHeard is the unix-nano time of the last frame received from
	// a primary; the watchdog measures silence against it.
	lastHeard atomic.Int64

	mu      sync.Mutex
	curConn net.Conn
	// tab is nil until a first checkpoint has landed, and again once a
	// delta was refused: a table the primary's own log does not extend
	// is not offered for election.
	tab   *sched.Table
	epoch uint64
	// applied counts the deltas folded into tab since its checkpoint:
	// what the failover soak reports of a promoted replica.
	applied int
}

func newStandby(cfg standbyConfig, primaryAddr string) *standby {
	s := &standby{cfg: cfg, stop: make(chan struct{})}
	s.addr.Store(primaryAddr)
	s.lastHeard.Store(time.Now().UnixNano())
	s.wg.Add(2)
	go s.run()
	go s.watchdog()
	return s
}

// setPrimaryAddr re-points the standby (after a failover) and drops
// any connection to the old primary so it re-attaches promptly.
func (s *standby) setPrimaryAddr(addr string) {
	s.addr.Store(addr)
	s.mu.Lock()
	if s.curConn != nil {
		s.curConn.Close()
	}
	s.mu.Unlock()
}

// halt stops the standby's goroutines (promotion and shutdown path).
func (s *standby) halt() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	if s.curConn != nil {
		s.curConn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *standby) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// replicaState is a standby's replication state at one instant: its
// table (nil while it has none to offer; only a halted standby's may be
// touched), the last sequence the table reflects — the one measure of
// how fresh the replica is — the deltas applied since its checkpoint
// and the epoch it was heard at.
type replicaState struct {
	tab     *sched.Table
	seq     uint64
	applied int
	epoch   uint64
}

// state returns the standby's replication state; ok is false while it
// holds no table.
func (s *standby) state() (st replicaState, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tab == nil {
		return replicaState{epoch: s.epoch}, false
	}
	return replicaState{s.tab, s.tab.Seq(), s.applied, s.epoch}, true
}

// knownEpoch is the newest epoch the standby has heard a primary at.
func (s *standby) knownEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *standby) markHeard() {
	s.lastHeard.Store(time.Now().UnixNano())
}

// watchdog fires onSilence while the primary stays silent past the
// missed-heartbeat budget, at most once per budget interval so a
// failed promotion can retry without a fire storm.
func (s *standby) watchdog() {
	defer s.wg.Done()
	budget := time.Duration(s.cfg.missBudget) * s.cfg.heartbeat
	t := time.NewTicker(s.cfg.heartbeat)
	defer t.Stop()
	var lastFire time.Time
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			heard := time.Unix(0, s.lastHeard.Load())
			if now.Sub(heard) > budget && now.Sub(lastFire) > budget {
				lastFire = now
				go s.cfg.onSilence(s.knownEpoch())
			}
		}
	}
}

// run dials and attaches until halted, re-attaching after any stream
// error (connection death, sequence gap, refused delta, stale primary).
func (s *standby) run() {
	defer s.wg.Done()
	for !s.stopped() {
		addr, _ := s.addr.Load().(string)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(s.cfg.missBudget)*s.cfg.heartbeat)
		conn, err := s.cfg.dial(ctx, s.cfg.node, addr)
		cancel()
		if err != nil {
			select {
			case <-s.stop:
				return
			case <-time.After(s.cfg.heartbeat):
			}
			continue
		}
		// Publish the conn under mu with a stop re-check: halt closes
		// stop before it closes curConn, so a conn that lands here
		// after halt's sweep must be closed by us, not attached — a
		// live primary's heartbeats would otherwise keep the frame
		// loop's read deadline fresh forever and halt would hang.
		s.mu.Lock()
		if s.stopped() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.curConn = conn
		s.mu.Unlock()
		if err := s.attach(conn); err != nil && !s.stopped() && !streamNoise(err) {
			s.cfg.logf("ha: shard %d standby %d: stream ended: %v", s.cfg.shard, s.cfg.node, err)
		}
		s.mu.Lock()
		s.curConn = nil
		s.mu.Unlock()
		conn.Close()
	}
}

// attach runs one replication session: epoch handshake, checkpoint
// stream restored into a fresh table, then deltas applied to it and
// heartbeats noted until the stream breaks.
func (s *standby) attach(conn net.Conn) error {
	budget := time.Duration(s.cfg.missBudget) * s.cfg.heartbeat
	hello := &wire.Epoch{Shard: s.cfg.shard, Epoch: s.knownEpoch(), Node: uint32(s.cfg.node)}
	conn.SetWriteDeadline(time.Now().Add(budget))
	if err := wire.Write(conn, hello); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(2 * budget))
	reply, err := wire.ReadTyped[*wire.Epoch](conn)
	if err != nil {
		return err
	}
	if reply.Shard != s.cfg.shard {
		return fmt.Errorf("primary serves shard %d, want %d", reply.Shard, s.cfg.shard)
	}
	if reply.Epoch < s.knownEpoch() {
		// Stale primary: NACK with the newer epoch so it self-deposes,
		// then walk away.
		wire.Write(conn, &wire.Epoch{Shard: s.cfg.shard, Epoch: s.knownEpoch(), Node: uint32(s.cfg.node)})
		return fmt.Errorf("primary at stale epoch %d < %d", reply.Epoch, s.knownEpoch())
	}
	offer, err := wire.ReadTyped[*wire.CkptOffer](conn)
	if err != nil {
		return err
	}
	if offer.Shard != s.cfg.shard || offer.Epoch != reply.Epoch {
		return fmt.Errorf("checkpoint offer for shard %d epoch %d under epoch %d", offer.Shard, offer.Epoch, reply.Epoch)
	}
	if offer.Bytes > maxCkptStream {
		return fmt.Errorf("checkpoint offer of %d bytes exceeds cap", offer.Bytes)
	}
	// The stream is restored as it arrives: what the standby allocates
	// follows the frames actually read, never a size the offer claims.
	conn.SetReadDeadline(time.Now().Add(4 * budget))
	body := &io.LimitedReader{R: conn, N: int64(offer.Bytes)}
	tab, err := sched.RestoreTable(s.cfg.tree, bufio.NewReader(body), offer.Seq)
	if err == nil && body.N != 0 {
		err = fmt.Errorf("checkpoint ends %d bytes short of the %d offered", body.N, offer.Bytes)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.tab, s.applied = tab, 0
	s.epoch = reply.Epoch
	s.mu.Unlock()
	s.markHeard()

	for {
		conn.SetReadDeadline(time.Now().Add(budget))
		m, err := wire.Read(conn)
		if err != nil {
			return err
		}
		switch f := m.(type) {
		case *wire.Heartbeat:
			if f.Shard == s.cfg.shard {
				s.markHeard()
			}
		case *wire.LeaseDelta:
			if f.Shard != s.cfg.shard {
				continue
			}
			s.markHeard()
			if err := s.absorb(f); err != nil {
				return err
			}
		case *wire.Epoch:
			// A newer-epoch announcement on a live stream is not part
			// of the protocol; ignore it.
		default:
			return fmt.Errorf("unexpected %T frame on replication stream", m)
		}
	}
}

// streamNoise reports the stream-end causes that are routine under
// churn and chaos — peer closes, resets, deadline kicks — and not
// worth a log line each (gaps, refused deltas and protocol violations
// are).
func streamNoise(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.As(err, &ne)
}

// absorb applies one delta to the table, skipping the prefix the
// checkpoint already covers. A sequence gap ends the stream with the
// table intact (it is still a true prefix of the primary's log); a delta
// the table refuses — an out-of-range or non-canonical frame, a release
// of an unknown lease, a place on an exhausted switch — is found here,
// while a primary still serves, not when the shard is headless: the
// table is dropped, so the replica is not elected on it, and the error
// ends the stream (error → re-attach for a fresh checkpoint).
func (s *standby) absorb(d *wire.LeaseDelta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tab == nil {
		return errors.New("lease delta before a checkpoint")
	}
	if seq := s.tab.Seq(); d.Seq <= seq {
		return nil // covered by the checkpoint (or a duplicate)
	} else if d.Seq != seq+1 {
		return fmt.Errorf("sequence gap: delta %d after %d", d.Seq, seq)
	}
	if err := s.tab.Apply(d); err != nil {
		s.tab = nil
		return err
	}
	s.applied++
	return nil
}
