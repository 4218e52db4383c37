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
// (attach, checkpoint stream, deltas applied to a live table) exported
// for a separate daemon to run against a primary's replication
// listener. Where the in-process shard replicas of Cluster promote
// themselves behind an epoch fence, a mirror lives in another process
// and cannot reach the primary's fencing register — Promote therefore
// only serves the table; deciding that the old primary is dead is the
// operator's (or the joining daemon's silence watchdog's) call.
type Mirror struct {
	shard int
	st    *standby
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
	// Epoch is the newest epoch heard; Seq the last journal sequence
	// the mirror's table reflects.
	Epoch uint64
	Seq   uint64
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
	NewMetrics(cfg.Obs) // a mirror's scrape shows the soar_ha_* families a cluster's does
	m := &Mirror{shard: cfg.Shard, reg: cfg.Obs}
	m.st = newStandby(standbyConfig{
		shard:      uint32(cfg.Shard),
		node:       cfg.Node,
		tree:       part.Shards[cfg.Shard].Pod.Tree,
		heartbeat:  cfg.Heartbeat,
		missBudget: cfg.MissBudget,
		dial:       cfg.Dial,
		logf:       cfg.Logf,
		onSilence:  onSilence,
	}, addr)
	cfg.Obs.GaugeFunc("soar_ha_mirror_seq",
		"Last journal sequence the mirror's table reflects.", nil,
		func() float64 { return float64(m.Status().Seq) })
	cfg.Obs.GaugeFunc("soar_ha_mirror_epoch",
		"Newest primary epoch the mirror has heard.", nil,
		func() float64 { return float64(m.Status().Epoch) })
	return m, nil
}

// Status reports replication progress.
func (m *Mirror) Status() MirrorStatus {
	st, ok := m.st.state()
	return MirrorStatus{Synced: ok, Epoch: st.epoch, Seq: st.seq}
}

// Shard returns the mirrored shard's index.
func (m *Mirror) Shard() int { return m.shard }

// Registry returns the mirror's metrics registry.
func (m *Mirror) Registry() *obs.Registry { return m.reg }

// Promote stops replicating and serves the mirror's table: Audit proves
// conservation, then a scheduler starts on it. base carries the caller's
// scheduler tuning; the capacities served are the table's — the ledger
// the primary checkpointed, spine switches pinned to zero — whatever
// base says. The mirror is spent afterwards, whether promotion
// succeeded or not.
func (m *Mirror) Promote(base sched.Config) (*sched.Scheduler, error) {
	m.st.halt()
	st, ok := m.st.state()
	if !ok {
		return nil, fmt.Errorf("ha: mirror of shard %d has no checkpoint to promote", m.shard)
	}
	if err := st.tab.Audit(); err != nil {
		return nil, fmt.Errorf("ha: mirror of shard %d: %w", m.shard, err)
	}
	// The mirror serves as the successor of the last epoch it heard.
	st.tab.SeedNextID(epochIDFloor(st.epoch + 1))
	cfg := base
	cfg.Journal = nil
	cfg.Fence = nil
	return sched.Serve(st.tab, cfg), nil
}

// Close stops the mirror's goroutines.
func (m *Mirror) Close() { m.st.halt() }
