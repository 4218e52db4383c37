package ha

import (
	"bytes"
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

// compactMinEvents is the journal length below which a standby never
// compacts. Past it, the standby folds its journal into its checkpoint
// as soon as the journal's bytes reach the checkpoint's: waiting for
// the log to match the state it extends makes the fold amortised O(1)
// per delta, as in any log compaction, and bounds what a replica holds
// by the live lease set rather than by the commits it has seen. The
// floor keeps a near-empty shard from re-encoding on every commit.
const compactMinEvents = 1024

// standbyConfig fixes one warm standby's identity and cadence.
type standbyConfig struct {
	shard uint32
	node  int
	// tree is the shard's pod tree: its size validates deltas, and
	// compaction replays into a throw-away scheduler over it.
	tree       *topology.Tree
	heartbeat  time.Duration
	missBudget int
	dial       func(ctx context.Context, node int, addr string) (net.Conn, error)
	met        *Metrics
	logf       func(format string, args ...any)
	// onSilence fires (async, at most once per heartbeat budget) when
	// the standby has heard nothing from any primary for the full
	// missed-heartbeat budget. The shard uses it as the failover
	// trigger; repeated fires during continued silence let a failed
	// promotion retry.
	onSilence func(lastEpoch uint64)
}

// standby is one warm replica: it attaches to the shard's primary,
// receives a checkpoint stamped with its journal sequence, then
// accumulates per-commit lease deltas so promotion is checkpoint +
// replay, not a cold resync. It holds no scheduler of its own until
// promoted; compaction borrows one for the length of a replay.
type standby struct {
	cfg standbyConfig

	addr atomic.Value // string: current primary address

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// lastHeard is the unix-nano time of the last frame received from
	// a primary; the watchdog measures silence against it.
	lastHeard atomic.Int64

	mu        sync.Mutex
	curConn   net.Conn
	haveState bool
	ckpt      []byte
	ckptSeq   uint64
	lastSeq   uint64
	epoch     uint64
	// journal holds the deltas past the checkpoint as the sparse frames
	// they arrived in (range-checked by absorb); replay densifies them
	// one at a time. journalBytes is their encoded size, the quantity
	// compaction weighs against len(ckpt).
	journal      []*wire.LeaseDelta
	journalBytes int
	// compactions and peakJournal are what the failover soak reports:
	// folds performed and the longest journal ever held.
	compactions int
	peakJournal int
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

// replicaState is a standby's replication state at one instant: the
// checkpoint it holds (streamed by the primary or folded by compact),
// the sequence that checkpoint reflects, the delta journal accumulated
// since, the last sequence absorbed — the one measure of how fresh the
// replica is, wherever compaction has moved ckptSeq — and the epoch it
// was heard at.
type replicaState struct {
	ckpt    []byte
	ckptSeq uint64
	journal []*wire.LeaseDelta
	lastSeq uint64
	epoch   uint64
}

// state returns the standby's replication state; ok is false until a
// first checkpoint has landed.
func (s *standby) state() (st replicaState, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return replicaState{s.ckpt, s.ckptSeq, s.journal, s.lastSeq, s.epoch}, s.haveState
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
// error (connection death, journal gap, failed compaction, stale
// primary).
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
// stream, then delta/heartbeat accumulation until the stream breaks.
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
	ckpt := make([]byte, offer.Bytes)
	conn.SetReadDeadline(time.Now().Add(4 * budget))
	if _, err := io.ReadFull(conn, ckpt); err != nil {
		return err
	}
	s.mu.Lock()
	s.haveState = true
	s.ckpt = ckpt
	s.ckptSeq = offer.Seq
	s.lastSeq = offer.Seq
	s.epoch = reply.Epoch
	s.journal, s.journalBytes = nil, 0
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
// worth a log line each (gaps, failed compactions and protocol
// violations are).
func streamNoise(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.As(err, &ne)
}

// absorb appends one delta to the journal, skipping the prefix the
// checkpoint already covers, and compacts once the journal has grown to
// the size of the checkpoint it extends. A sequence gap, an
// out-of-range frame or a journal that does not replay is a resync
// trigger (error → re-attach for a fresh checkpoint).
func (s *standby) absorb(d *wire.LeaseDelta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.Seq <= s.lastSeq {
		return nil // covered by the checkpoint (or a duplicate)
	}
	if d.Seq != s.lastSeq+1 {
		return fmt.Errorf("journal gap: delta %d after %d", d.Seq, s.lastSeq)
	}
	if err := checkDelta(d, s.cfg.tree.N()); err != nil {
		return err
	}
	s.journal = append(s.journal, d)
	s.journalBytes += deltaBytes(d)
	s.lastSeq = d.Seq
	s.peakJournal = max(s.peakJournal, len(s.journal))
	if len(s.journal) >= compactMinEvents && s.journalBytes >= len(s.ckpt) {
		return s.compactLocked()
	}
	return nil
}

// compactLocked folds the journal into the checkpoint by the promotion
// path itself: replay into a throw-away scheduler (Restore installs the
// checkpoint's own ledger, so the pod tree is all it needs), then
// checkpoint that scheduler at the last absorbed sequence. A delta that
// passed checkDelta but breaks the ledger — a release of an unknown
// lease, a place on an exhausted switch — is therefore found here,
// while a primary still serves, not when the shard is headless: the
// state that failed to replay is dropped, so the replica is not elected
// on it, and the error ends the stream. Caller holds mu.
func (s *standby) compactLocked() error {
	start := time.Now()
	sch := sched.New(s.cfg.tree, sched.Config{Workers: 1})
	defer sch.Close()
	var buf bytes.Buffer
	buf.Grow(len(s.ckpt))
	err := replay(sch, s.ckpt, s.ckptSeq, s.journal)
	if err == nil {
		_, err = sch.CheckpointSeq(&buf)
	}
	if err != nil {
		s.haveState, s.ckpt, s.journal, s.journalBytes = false, nil, nil, 0
		return err
	}
	s.ckpt, s.ckptSeq, s.journal, s.journalBytes = buf.Bytes(), s.lastSeq, nil, 0
	s.compactions++
	s.cfg.met.compactions.Inc()
	s.cfg.met.compactSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// replay folds a standby's replication state into a fresh scheduler:
// restore the checkpoint, seed the journal sequence it was stamped
// with, apply the delta suffix (the load pairs go from frame to lease
// record as pairs; nothing on this path is dense), then prove
// conservation from first principles before the replica may serve.
func replay(sch *sched.Scheduler, ckpt []byte, seq uint64, journal []*wire.LeaseDelta) error {
	if err := sch.Restore(bytes.NewReader(ckpt)); err != nil {
		return fmt.Errorf("ha: replay restore: %w", err)
	}
	sch.SeedJournal(seq)
	for _, d := range journal {
		if err := sch.ApplyEvent(eventFromDelta(d)); err != nil {
			return fmt.Errorf("ha: replay event %d: %w", d.Seq, err)
		}
	}
	if err := sch.Audit(); err != nil {
		return fmt.Errorf("ha: replay audit: %w", err)
	}
	return nil
}
