package ha

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"soar/internal/obs"
	"soar/internal/sched"
	"soar/internal/topology"
)

// ErrFenced is returned for commits attempted by a scheduler
// incarnation whose epoch is no longer current (or whose process was
// crashed): the mutation was rejected and did not happen.
var ErrFenced = errors.New("ha: commit fenced: stale epoch")

// ErrNoPrimary is returned by routing when a shard had no serving
// primary for the whole route timeout (a failover that never
// converged).
var ErrNoPrimary = errors.New("ha: no serving primary")

// schedUnlimited mirrors the scheduler's internal unlimited-capacity
// sentinel for shards whose global config is uncapped.
const schedUnlimited = 1 << 30

// incarnation is one (scheduler, epoch) pairing: the unit fencing
// reasons about. Promotion builds a new incarnation; the old one's
// scheduler stays alive but every commit it attempts fences.
type incarnation struct {
	sch   *sched.Scheduler
	epoch uint64
	node  int
	// applied is the number of deltas the incarnation's table had applied
	// as a standby when it was promoted (0 for a bootstrap primary).
	applied int
	// crashed is the in-process stand-in for the primary's process
	// dying: set by CrashPrimary, read by the fence closure, so a
	// commit already in flight when the crash lands fails.
	crashed *atomic.Bool
	prim    *primary
}

// shard runs one pod's control plane: a primary incarnation plus warm
// standbys, with epoch-fenced failover between them.
type shard struct {
	idx  int
	spec ShardSpec
	opts *Options
	caps []int // local capacity vector (spine pinned to 0)
	met  *Metrics
	logf func(format string, args ...any)

	// epoch is the shard's fencing register: the single word every
	// incarnation's Fence closure compares itself against. Storing a
	// new epoch is THE failover commit point — it strictly orders
	// against every in-flight commit, because the scheduler consults
	// the fence under its commit lock.
	epoch atomic.Uint64

	// cur is the serving incarnation, the one record of who serves the
	// shard: nil from a crash or the start of a promotion until a
	// promotion lands (routing retries until then).
	cur atomic.Pointer[incarnation]

	// mu serializes membership changes: promotion, crash, close.
	mu       sync.Mutex
	standbys []*standby
	retired  []*incarnation
	closed   bool
}

// localCaps builds the shard's capacity vector: spine switches are
// shared infrastructure and never leasable (capacity 0); pod switches
// inherit the global per-switch capacity.
func localCaps(pod *topology.Pod, base sched.Config) []int {
	caps := make([]int, pod.Tree.N())
	for lv := range caps {
		if lv < pod.Spine {
			continue // spine: capacity 0
		}
		gv := pod.Global[lv]
		switch {
		case base.Capacities != nil:
			caps[lv] = base.Capacities[gv]
		case base.Capacity > 0:
			caps[lv] = base.Capacity
		default:
			caps[lv] = schedUnlimited
		}
	}
	return caps
}

func newShard(spec ShardSpec, opts *Options, met *Metrics, reg *obs.Registry, logf func(string, ...any)) (*shard, error) {
	s := &shard{idx: spec.Index, spec: spec, opts: opts, met: met, logf: logf}
	s.caps = localCaps(spec.Pod, opts.Sched)
	s.epoch.Store(1)
	inc, err := s.spawnPrimary(s.nodeID(0), 1, nil)
	if err != nil {
		return nil, fmt.Errorf("ha: shard %d: %w", s.idx, err)
	}
	s.cur.Store(inc)
	for r := 0; r < opts.Replicas; r++ {
		s.standbys = append(s.standbys, s.spawnStandby(s.nodeID(r+1)))
	}
	label := obs.Labels{"shard": strconv.Itoa(s.idx)}
	reg.GaugeFunc("soar_ha_shard_epoch", "Current fencing epoch per shard.", label,
		func() float64 { return float64(s.epoch.Load()) })
	reg.GaugeFunc("soar_ha_shard_standbys", "Attachable warm standbys per shard.", label,
		func() float64 { return float64(s.standbyCount()) })
	return s, nil
}

// nodeID gives replica slots of this shard stable identities for the
// chaos injector: slot 0 is the bootstrap primary.
func (s *shard) nodeID(slot int) int { return (s.idx+1)*100 + slot }

// fenceFor binds one incarnation's fence: the scheduler consults it
// under the commit lock before every mutation. An epoch mismatch means
// a standby was promoted past this incarnation — the late commit is
// rejected and counted, the paper trail the failover soak asserts on.
func (s *shard) fenceFor(epoch uint64, crashed *atomic.Bool) func() error {
	return func() error {
		if crashed.Load() {
			return ErrFenced
		}
		if s.epoch.Load() != epoch {
			s.met.epochRejections.Inc()
			return ErrFenced
		}
		return nil
	}
}

// spawnPrimary builds one serving incarnation at the given epoch: a
// scheduler journaling into a fresh hub, fenced against the shard's
// epoch register, serving the streams attach hands it. tab is the
// promoted replica's table, audited here before anything is built on
// it; nil starts the shard on a fresh table at its configured
// capacities.
func (s *shard) spawnPrimary(node int, epoch uint64, tab *sched.Table) (*incarnation, error) {
	if tab != nil {
		if err := tab.Audit(); err != nil {
			return nil, err
		}
		tab.SeedNextID(epochIDFloor(epoch))
	}
	h := newHub()
	f := &feed{shard: uint32(s.idx), epoch: epoch, hub: h, met: s.met}
	crashed := new(atomic.Bool)
	cfg := s.opts.Sched
	cfg.Capacity = 0
	cfg.Capacities = s.caps
	cfg.Journal = f.journal
	cfg.Fence = s.fenceFor(epoch, crashed)
	var sch *sched.Scheduler
	if tab != nil {
		sch = sched.Serve(tab, cfg)
	} else {
		sch = sched.New(s.spec.Pod.Tree, cfg)
	}
	prim := newPrimary(sch, f, h, primaryConfig{
		shard:     uint32(s.idx),
		epoch:     epoch,
		node:      node,
		heartbeat: s.opts.Heartbeat,
		met:       s.met,
		logf:      s.logf,
	})
	return &incarnation{sch: sch, epoch: epoch, node: node, crashed: crashed, prim: prim}, nil
}

func (s *shard) spawnStandby(node int) *standby {
	return newStandby(standbyConfig{
		shard:      uint32(s.idx),
		node:       node,
		tree:       s.spec.Pod.Tree,
		heartbeat:  s.opts.Heartbeat,
		missBudget: s.opts.MissBudget,
		dial:       s.attach,
		logf:       s.logf,
		onSilence:  s.onSilence,
	})
}

// attach opens a replication stream from replica node to the serving
// incarnation: an in-process pipe whose other end the primary serves.
// Options.Conn wraps each end under the node that owns it; its error,
// or no serving primary, refuses the attach.
func (s *shard) attach(node int) (net.Conn, error) {
	inc := s.cur.Load()
	if inc == nil {
		return nil, fmt.Errorf("ha: shard %d: %w", s.idx, ErrNoPrimary)
	}
	near, far := net.Pipe()
	if wrap := s.opts.Conn; wrap != nil {
		var err error
		if near, err = wrap(node, near); err != nil {
			return nil, err // an unused pipe holds no resource
		}
		if far, err = wrap(inc.node, far); err != nil {
			near.Close() // the hook may track the end it wrapped
			return nil, err
		}
	}
	inc.prim.adopt(far)
	return near, nil
}

// onSilence is the failover trigger: a standby heard nothing for the
// whole missed-heartbeat budget. obsEpoch is the epoch the standby
// last heard a primary at — a fire for an epoch that is no longer
// current is stale news (the promotion it asks for already happened),
// unless the shard has no serving incarnation at all (its primary
// crashed, or a previous promotion failed and must be retried).
func (s *shard) onSilence(obsEpoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.cur.Load() != nil && obsEpoch != s.epoch.Load() {
		return
	}
	s.promoteLocked()
}

// epochIDFloor is the first shard-local lease id an incarnation
// promoted at epoch may issue. A primary acknowledges a commit before
// its standbys hold the delta, so the state a standby replays can be
// behind ids clients already hold; starting every promoted epoch in its
// own 2³²-id band keeps such an id from being granted twice. The band
// of epoch e is [e·2³², (e+1)·2³²) inside the 48-bit local id space:
// room for 65535 failovers of one shard, and for four billion
// admissions per epoch before an incarnation runs into the next band.
func epochIDFloor(epoch uint64) int64 { return int64(epoch) << 32 }

// promoteLocked fails the shard over: advance the epoch (fencing every
// older incarnation), audit the freshest standby's table and start
// serving it. Caller holds mu.
func (s *shard) promoteLocked() {
	start := time.Now()
	best, bestSeq := -1, uint64(0)
	for i, sb := range s.standbys {
		st, ok := sb.state()
		if !ok {
			continue
		}
		last := st.seq
		// Freshest table wins; node id breaks ties deterministically.
		if best == -1 || last > bestSeq || (last == bestSeq && sb.cfg.node < s.standbys[best].cfg.node) {
			best, bestSeq = i, last
		}
	}
	if best == -1 {
		s.logf("ha: shard %d: silence verdict but no standby has state; will retry", s.idx)
		return
	}

	newEpoch := s.epoch.Load() + 1
	s.epoch.Store(newEpoch) // fencing moment: older incarnations now reject
	s.retireLocked()

	sb := s.standbys[best]
	s.standbys = append(s.standbys[:best], s.standbys[best+1:]...)
	sb.halt()
	// The table is read again now that nothing can touch it: a delta
	// refused since the election above has taken it off offer.
	st, ok := sb.state()
	err := errors.New("its table was dropped on a refused delta")
	var inc *incarnation
	if ok {
		inc, err = s.spawnPrimary(sb.cfg.node, newEpoch, st.tab)
	}
	if err != nil {
		// The shard is headless until another silence verdict retries
		// with the remaining standbys; routing returns ErrNoPrimary
		// only after the route timeout.
		s.logf("ha: shard %d: promotion of node %d at epoch %d failed: %v", s.idx, sb.cfg.node, newEpoch, err)
		return
	}
	inc.applied = st.applied
	s.cur.Store(inc)
	s.met.failovers.Inc()
	s.met.promoteSeconds.Observe(time.Since(start).Seconds())
	s.logf("ha: shard %d: node %d promoted at epoch %d (seq %d, %d deltas applied live)",
		s.idx, sb.cfg.node, newEpoch, st.seq, st.applied)
	// Refill the replica set: the dead primary's slot comes back as a
	// standby (its attaches fail until the node heals, like a rebooting
	// machine). Exactly one incarnation is retired between two promotions
	// that land — by a crash, or by the retirement above — so the newest
	// retired one holds the slot still empty.
	dead := s.retired[len(s.retired)-1]
	s.standbys = append(s.standbys, s.spawnStandby(dead.node))
}

// retireLocked takes the serving incarnation out of routing, if there
// is one: its network closes in the background, and its scheduler stays
// alive, fenced, until the shard closes. Caller holds mu.
func (s *shard) retireLocked() {
	if old := s.cur.Swap(nil); old != nil {
		s.retired = append(s.retired, old)
		go old.prim.close()
	}
}

// crashPrimary kills the serving incarnation the way a process death
// would: every future commit fails (fenced via the crashed flag, so
// in-flight requests get errors rather than ACKs), it leaves routing and
// its network goes away. Standbys notice the silence and fail over.
// Returns the crashed incarnation's scheduler so tests can assert its
// late commits fence, or nil if the shard had no serving primary.
func (s *shard) crashPrimary() *sched.Scheduler {
	s.mu.Lock()
	defer s.mu.Unlock()
	inc := s.cur.Load()
	if inc == nil {
		return nil
	}
	inc.crashed.Store(true)
	s.retireLocked()
	return inc.sch
}

// retriable reports whether a routing error may resolve after a
// failover (the request never committed).
func retriable(err error) bool {
	return errors.Is(err, ErrFenced) || errors.Is(err, sched.ErrClosed)
}

// place routes one admission to the shard's serving incarnation,
// absorbing failovers: a fenced or closed scheduler means the commit
// did not happen, so the request retries against the next incarnation
// until the route timeout.
func (s *shard) place(load []int, k int, lease *sched.Lease) error {
	deadline := time.Now().Add(s.opts.RouteTimeout)
	for {
		if inc := s.cur.Load(); inc != nil {
			err := inc.sch.PlaceInto(load, k, lease)
			if err == nil || !retriable(err) {
				return err
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ha: shard %d: %w", s.idx, ErrNoPrimary)
		}
		time.Sleep(s.opts.Heartbeat)
	}
}

// release routes one release; ErrNotFound passes through (the lease
// may have been lost with an un-replicated commit, which is the
// documented at-most-once admission contract under failover).
func (s *shard) release(id int64) error {
	deadline := time.Now().Add(s.opts.RouteTimeout)
	for {
		if inc := s.cur.Load(); inc != nil {
			err := inc.sch.Release(id)
			if err == nil || !retriable(err) {
				return err
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ha: shard %d: %w", s.idx, ErrNoPrimary)
		}
		time.Sleep(s.opts.Heartbeat)
	}
}

func (s *shard) lookup(id int64) (*sched.Lease, error) {
	inc := s.cur.Load()
	if inc == nil {
		return nil, fmt.Errorf("ha: shard %d: %w", s.idx, ErrNoPrimary)
	}
	return inc.sch.Lookup(id)
}

func (s *shard) standbyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.standbys)
}

// scheduler returns the serving incarnation's scheduler (nil mid
// failover).
func (s *shard) scheduler() *sched.Scheduler {
	if inc := s.cur.Load(); inc != nil {
		return inc.sch
	}
	return nil
}

func (s *shard) status() ShardStatus {
	st := ShardStatus{
		Index: s.idx,
		Root:  s.spec.Pod.Root,
		Epoch: s.epoch.Load(),
	}
	st.Standbys = s.standbyCount()
	if inc := s.cur.Load(); inc != nil {
		st.PrimaryNode = inc.node
		st.Seq = inc.sch.JournalSeq()
		st.Tenants = inc.sch.Snapshot().Tenants
	} else {
		st.PrimaryNode = -1
	}
	return st
}

func (s *shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	standbys := s.standbys
	s.standbys = nil
	retired := s.retired
	cur := s.cur.Load()
	s.mu.Unlock()
	for _, sb := range standbys {
		sb.halt()
	}
	if cur != nil {
		cur.prim.close()
		cur.sch.Close()
	}
	for _, inc := range retired {
		inc.prim.close()
		inc.sch.Close()
	}
}
