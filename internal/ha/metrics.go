package ha

import (
	"soar/internal/obs"
)

// Metrics is the cluster-level replication instrumentation, registered
// in the cluster registry (Options.Obs) — distinct from the per-shard
// scheduler registries, which each belong to exactly one scheduler
// incarnation. All families are soar_ha_*.
type Metrics struct {
	// EpochRejections counts commits a stale primary attempted after a
	// newer epoch was installed — the fencing proof the failover soak
	// asserts on.
	epochRejections *obs.Counter
	// failovers counts promotions (one per epoch bump).
	failovers *obs.Counter
	// heartbeats counts heartbeat frames published by primaries.
	heartbeats *obs.Counter
	// deltas counts lease-delta frames published by primaries.
	deltas *obs.Counter
	// ckptStreams counts checkpoint streams served to attaching standbys.
	ckptStreams *obs.Counter
	// attaches counts standby attach attempts that reached the epoch
	// handshake (successful or NACKed).
	attaches *obs.Counter
	// promoteSeconds observes silence-to-serving promotion latency.
	promoteSeconds *obs.Histogram
}

// newMetrics registers the soar_ha_* families in reg.
func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		epochRejections: reg.Counter("soar_ha_epoch_rejections_total",
			"Commits rejected by epoch fencing (stale primary).", nil),
		failovers: reg.Counter("soar_ha_failovers_total",
			"Standby promotions performed.", nil),
		heartbeats: reg.Counter("soar_ha_heartbeats_total",
			"Heartbeat frames published by primaries.", nil),
		deltas: reg.Counter("soar_ha_deltas_total",
			"Lease-delta frames published by primaries.", nil),
		ckptStreams: reg.Counter("soar_ha_ckpt_streams_total",
			"Checkpoint streams served to attaching standbys.", nil),
		attaches: reg.Counter("soar_ha_attaches_total",
			"Standby attach attempts reaching the epoch handshake.", nil),
		promoteSeconds: reg.Histogram("soar_ha_promote_seconds",
			"Promotion latency from silence verdict to serving standby.",
			nil, obs.ExpBuckets(1e-4, 2, 18)),
	}
}

// EpochRejections returns the fencing counter's current value — the
// soak asserts it advances when a deposed primary's late commit is
// rejected.
func (m *Metrics) EpochRejections() uint64 { return m.epochRejections.Value() }

// Failovers returns the number of promotions performed.
func (m *Metrics) Failovers() uint64 { return m.failovers.Value() }
