package ha

import (
	"context"
	"fmt"
	"net"
	"time"

	"soar/internal/obs"
	"soar/internal/sched"
	"soar/internal/topology"
)

// Mirror is an out-of-process warm replica: the standby protocol
// (attach, checkpoint stream, delta journal) exported for a separate
// daemon to run against a primary's replication listener. Where the
// in-process shard replicas of Cluster promote themselves behind an
// epoch fence, a mirror lives in another process and cannot reach the
// primary's fencing register — Promote therefore only builds the
// scheduler; deciding that the old primary is dead is the operator's
// (or the joining daemon's silence watchdog's) call.
type Mirror struct {
	part  *Partitioning
	shard int
	st    *standby
	met   *Metrics
	reg   *obs.Registry
}

// MirrorConfig tunes a joining replica. Zero values take the Options
// defaults (250ms heartbeat, budget of 4 misses).
type MirrorConfig struct {
	// Shard is the index of the shard the primary serves; Node tags
	// this replica in logs and protocol frames.
	Shard int
	Node  int
	// Heartbeat and MissBudget must match the primary's cadence: the
	// silence watchdog measures against MissBudget×Heartbeat.
	Heartbeat  time.Duration
	MissBudget int
	// Dial opens the replication connection; nil uses plain TCP.
	Dial func(ctx context.Context, node int, addr string) (net.Conn, error)
	// Obs receives the mirror's soar_ha_* families; nil gets a private
	// registry.
	Obs *obs.Registry
	// Logf receives stream events; nil discards them.
	Logf func(format string, args ...any)
	// OnSilence fires (async) when the primary has been silent past
	// the missed-heartbeat budget — the joining daemon's cue to
	// Promote. Nil means the mirror only reports staleness via Status.
	OnSilence func(lastEpoch uint64)
}

// MirrorStatus is a replication-progress snapshot.
type MirrorStatus struct {
	// Synced is false until the first checkpoint lands.
	Synced bool
	// Epoch is the newest epoch heard; Seq the last absorbed journal
	// sequence; Journal the delta count held beyond the checkpoint.
	Epoch   uint64
	Seq     uint64
	Journal int
}

// NewMirror partitions t at level (the same level the primary's
// cluster used) and starts a replica of cfg.Shard attached to addr.
// Close releases it; Promote consumes it.
func NewMirror(t *topology.Tree, level int, addr string, cfg MirrorConfig) (*Mirror, error) {
	part, err := Partition(t, level)
	if err != nil {
		return nil, err
	}
	if cfg.Shard < 0 || cfg.Shard >= len(part.Shards) {
		return nil, fmt.Errorf("ha: mirror shard %d of %d", cfg.Shard, len(part.Shards))
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 250 * time.Millisecond
	}
	if cfg.MissBudget <= 0 {
		cfg.MissBudget = 4
	}
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, _ int, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	onSilence := cfg.OnSilence
	if onSilence == nil {
		onSilence = func(uint64) {}
	}
	m := &Mirror{part: part, shard: cfg.Shard, met: NewMetrics(cfg.Obs), reg: cfg.Obs}
	m.st = newStandby(standbyConfig{
		shard:      uint32(cfg.Shard),
		node:       cfg.Node,
		tree:       part.Shards[cfg.Shard].Pod.Tree,
		heartbeat:  cfg.Heartbeat,
		missBudget: cfg.MissBudget,
		dial:       cfg.Dial,
		met:        m.met,
		logf:       cfg.Logf,
		onSilence:  onSilence,
	}, addr)
	cfg.Obs.GaugeFunc("soar_ha_mirror_seq",
		"Last journal sequence the mirror absorbed.", nil,
		func() float64 { return float64(m.Status().Seq) })
	cfg.Obs.GaugeFunc("soar_ha_mirror_epoch",
		"Newest primary epoch the mirror has heard.", nil,
		func() float64 { return float64(m.Status().Epoch) })
	cfg.Obs.GaugeFunc("soar_ha_mirror_journal_events",
		"Delta-journal events held beyond the last checkpoint.", nil,
		func() float64 { return float64(m.Status().Journal) })
	return m, nil
}

// Status reports replication progress.
func (m *Mirror) Status() MirrorStatus {
	st, ok := m.st.state()
	return MirrorStatus{
		Synced:  ok,
		Epoch:   st.epoch,
		Seq:     st.lastSeq,
		Journal: len(st.journal),
	}
}

// Shard returns the mirrored shard's index.
func (m *Mirror) Shard() int { return m.shard }

// Registry returns the mirror's metrics registry.
func (m *Mirror) Registry() *obs.Registry { return m.reg }

// Promote stops replicating and folds the mirror's state into a fresh
// serving scheduler over the shard's pod tree: checkpoint restore,
// delta replay, then Audit proves conservation before it is returned.
// base carries the caller's scheduler tuning; its capacity fields are
// replaced by the shard-local vector (spine switches pinned to zero),
// exactly as the primary configured them, so replayed admissions meet
// the residual checks they originally passed. The mirror is spent
// afterwards, whether promotion succeeded or not.
func (m *Mirror) Promote(base sched.Config) (*sched.Scheduler, error) {
	m.st.halt()
	st, ok := m.st.state()
	if !ok {
		return nil, fmt.Errorf("ha: mirror of shard %d has no checkpoint to promote", m.shard)
	}
	pod := m.part.Shards[m.shard].Pod
	cfg := base
	cfg.Capacity = 0
	cfg.Capacities = localCaps(pod, base)
	cfg.Journal = nil
	cfg.Fence = nil
	sch := sched.New(pod.Tree, cfg)
	if err := replay(sch, st.ckpt, st.ckptSeq, st.journal); err != nil {
		sch.Close()
		return nil, err
	}
	// The mirror serves as the successor of the last epoch it heard.
	sch.SeedNextID(epochIDFloor(st.epoch + 1))
	return sch, nil
}

// Close stops the mirror's goroutines.
func (m *Mirror) Close() { m.st.halt() }
