// Package naas turns SOAR into the Network-as-a-Service building block
// the paper sketches in its introduction: "cloud providers can offer
// such a service as part of their NaaS offerings, where each client can
// choose its required amount of aggregation switches based on the
// performance it needs."
//
// A Service owns one tree network and its per-switch aggregation
// capacities. Tenants arrive online with a load vector and a requested
// budget k; the service places their aggregation switches with SOAR
// against the residual capacities (exactly the Sec. 5.2 online model),
// leases the switches to the tenant, and — extending the paper's model,
// which has arrivals only — reclaims them when the tenant departs.
//
// Since the internal/sched subsystem landed, Service is a thin facade:
// all admission, concurrency control, residual bookkeeping and
// background re-packing live in sched.Scheduler (batched arrivals, a
// pool of incremental SOAR engines, commit-time conflict resolution).
// The HTTP API (server.go) exposes the service as a JSON control plane;
// Client (client.go) is its Go consumer.
package naas

import (
	"context"
	"fmt"
	"io"
	"sync"

	"soar/internal/cluster"
	"soar/internal/obs"
	"soar/internal/sched"
	"soar/internal/topology"
)

// ErrNotFound is returned for operations on unknown tenant ids.
var ErrNotFound = sched.ErrNotFound

// Lease describes one tenant's allocation. Leases are caller-owned
// copies of the scheduler's records: mutating one cannot corrupt or
// race the service's internal state.
type Lease = sched.Lease

// Stats summarizes the service's state.
type Stats = sched.Stats

// Service is a concurrency-safe allocator over one physical tree.
type Service struct {
	probes
	s *sched.Scheduler
	// save, when set, persists a checkpoint durably (POST /v1/checkpoint
	// and the daemon's periodic/shutdown saves all funnel through it).
	save func() (path string, size int64, err error)

	// cmet records the loopback cluster runs (POST /v1/cluster) into
	// the scheduler's registry and trace ring, so one scrape covers
	// scheduler, checkpoint and cluster families alike.
	cmet *cluster.Metrics

	// cmu guards the last-run summary surfaced by ClusterSnapshot.
	cmu          sync.Mutex
	clusterRuns  int64
	lastAttempts int
	lastCause    string

	// logf, when set, receives operational log lines (degraded or
	// retried cluster runs). See SetLogf.
	logf func(format string, args ...interface{})
}

// NewService creates a service over tree t where every switch can serve
// at most capacity tenants simultaneously (capacity ≤ 0 means
// unlimited), with the scheduler's default batching, worker-pool and
// re-packing settings. Callers must Close the service.
func NewService(t *topology.Tree, capacity int) *Service {
	return NewServiceWith(t, sched.Config{Capacity: capacity})
}

// NewServiceCaps creates a service over a heterogeneous deployment:
// caps[v] is the number of tenants switch v can aggregate for
// simultaneously, with 0 marking a plain forwarder that never
// aggregates. Callers must Close the service.
func NewServiceCaps(t *topology.Tree, caps []int) *Service {
	return NewServiceWith(t, sched.Config{Capacities: caps})
}

// NewServiceWith creates a service with full control over the
// scheduler's configuration (batching window, engine-pool size,
// per-switch capacity vector, background re-packing).
func NewServiceWith(t *topology.Tree, cfg sched.Config) *Service {
	return FromScheduler(sched.New(t, cfg))
}

// FromScheduler wraps an already-running scheduler in the service
// facade — the path a replicated deployment takes, where the scheduler
// is owned by a shard (a promoted standby) rather than built from a
// topology here. The service serves the scheduler's HTTP surface but
// does not own its lifecycle beyond Close.
func FromScheduler(sc *sched.Scheduler) *Service {
	s := &Service{s: sc, cmet: cluster.NewMetrics(sc.Registry(), sc.Trace())}
	s.ready.Store(true)
	return s
}

// Tree returns the service's network.
func (s *Service) Tree() *topology.Tree { return s.s.Tree() }

// Scheduler exposes the underlying placement scheduler (metrics,
// explicit re-packing).
func (s *Service) Scheduler() *sched.Scheduler { return s.s }

// Close stops the service's scheduler: pending requests are answered,
// background goroutines exit, and later calls fail with
// sched.ErrClosed.
func (s *Service) Close() { s.s.Close() }

// Place admits one tenant: it runs SOAR restricted to switches with
// residual capacity, charges the chosen switches, and returns the lease.
func (s *Service) Place(load []int, k int) (*Lease, error) {
	return s.s.Place(load, k)
}

// Release ends a tenant's lease and reclaims its switches — the
// departure half of the arrival/departure lifecycle (the paper's online
// model covers arrivals only; see DESIGN.md).
func (s *Service) Release(id int64) error { return s.s.Release(id) }

// Lookup returns a copy of a lease, reflecting any re-packer migration
// since it was placed.
func (s *Service) Lookup(id int64) (*Lease, error) { return s.s.Lookup(id) }

// Snapshot returns current service statistics.
func (s *Service) Snapshot() Stats { return s.s.Snapshot() }

// Residual returns a copy of the per-switch residual capacities.
func (s *Service) Residual() []int { return s.s.Residual() }

// Checkpoint writes the service's durable control-plane state — the
// capacity ledger and every active lease — to w in the internal/wire
// checkpoint format. Safe to call while serving traffic; the snapshot
// is consistent (see sched.Scheduler.Checkpoint).
func (s *Service) Checkpoint(w io.Writer) error { return s.s.Checkpoint(w) }

// Restore replays a checkpoint into a freshly created service. It must
// run before the service admits any tenant or serves HTTP traffic; a
// corrupted, truncated or wrong-topology checkpoint is rejected without
// installing anything (see sched.Scheduler.Restore).
func (s *Service) Restore(r io.Reader) error { return s.s.Restore(r) }

// Registry returns the service's metrics registry: every scheduler,
// checkpoint and cluster family this service records, ready for
// GET /metrics (obs.Registry.WriteText).
func (s *Service) Registry() *obs.Registry { return s.s.Registry() }

// Trace returns the service's span ring: per-stage timings for
// admissions, batches, solves, checkpoints and cluster frames, newest
// first via Dump (GET /v1/trace).
func (s *Service) Trace() *obs.Trace { return s.s.Trace() }

// ClusterStats summarizes the service's loopback cluster runs for
// /v1/stats. Degraded counts runs answered by the local fallback
// solve after transport retries were exhausted.
type ClusterStats struct {
	ClusterRuns     int64  `json:"cluster_runs"`
	ClusterDegraded int64  `json:"cluster_degraded"`
	LastRunAttempts int    `json:"last_run_attempts"`
	LastCause       string `json:"last_degraded_cause,omitempty"`
}

// ClusterSnapshot returns the cluster-run summary.
func (s *Service) ClusterSnapshot() ClusterStats {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return ClusterStats{
		ClusterRuns:     s.clusterRuns,
		ClusterDegraded: int64(s.cmet.Degraded()),
		LastRunAttempts: s.lastAttempts,
		LastCause:       s.lastCause,
	}
}

// ClusterRun replays lease id's placement problem over the loopback
// cluster runtime (internal/cluster): every switch gets a real TCP
// listener, the SOAR tables travel as wire frames, and transport
// faults degrade to a local solve instead of erroring
// (cluster.RunOrFallback). The run solves the tenant's problem on the
// bare tree — residual capacities from other tenants are not charged —
// so it verifies the wire protocol against the tenant's own optimum,
// not the admission-time placement. Results feed the soar_cluster_*
// metric families and /v1/stats' degradation summary.
func (s *Service) ClusterRun(ctx context.Context, id int64) (*cluster.Result, error) {
	lease, err := s.Lookup(id)
	if err != nil {
		return nil, err
	}
	res, err := cluster.RunOrFallback(ctx, s.Tree(), lease.Load, nil, lease.K,
		&cluster.Options{Metrics: s.cmet})
	if err != nil {
		return nil, err
	}
	s.cmu.Lock()
	s.clusterRuns++
	s.lastAttempts = res.Attempts
	if res.Degraded {
		s.lastCause = fmt.Sprint(res.Cause)
	}
	logf := s.logf
	s.cmu.Unlock()
	if logf != nil {
		switch {
		case res.Degraded:
			logf("naas: cluster run for lease %d DEGRADED after %d attempts: %v", id, res.Attempts, res.Cause)
		case res.Attempts > 1:
			logf("naas: cluster run for lease %d recovered on attempt %d", id, res.Attempts)
		}
	}
	return res, nil
}

// SetLogf routes the service's operational log lines — degraded or
// retried cluster runs — to fn (e.g. log.Printf). It must be called
// before the service serves traffic; nil (the default) silences them.
func (s *Service) SetLogf(fn func(format string, args ...interface{})) {
	s.cmu.Lock()
	s.logf = fn
	s.cmu.Unlock()
}

// SetCheckpointSaver registers the durable checkpoint sink invoked by
// POST /v1/checkpoint: fn persists a checkpoint and reports where and
// how many bytes. It must be called before the service starts serving
// HTTP traffic (it is not synchronized against the handler).
func (s *Service) SetCheckpointSaver(fn func() (path string, size int64, err error)) {
	s.save = fn
}
