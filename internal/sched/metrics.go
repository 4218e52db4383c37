package sched

import (
	"time"

	"soar/internal/obs"
)

// This file is the scheduler's observability surface. Every count,
// histogram and gauge the scheduler keeps is a family in one
// obs.Registry, scrapeable as Prometheus text through
// Registry().WriteText (naas serves it as GET /metrics); the registry
// is the only record of what the scheduler did, and quantiles are read
// off its histograms (obs.HistogramQuantile). The note* recording
// methods stay //soar:hotpath — obs record ops are atomic slot updates,
// so instrumentation does not cost the admission path its 0 allocs/op
// contract (bench-smoke holds the line in CI).

// metrics holds the scheduler's recording handles, all registered in
// New. The handles themselves are lock-free; batchMaxN is guarded by
// Scheduler.mu (every note* call happens under it, except the span
// records which are seqlock-safe anywhere).
type metrics struct {
	reg *obs.Registry
	tr  *obs.Trace

	placed    *obs.Counter
	released  *obs.Counter
	notFound  *obs.Counter
	conflicts *obs.Counter
	splits    *obs.Counter
	batches   *obs.Counter
	batchSize *obs.Histogram
	batchMax  *obs.Gauge
	queueWait *obs.Histogram

	placeSeconds   *obs.Histogram
	releaseSeconds *obs.Histogram

	repackRounds *obs.Counter
	repackMoves  *obs.Counter
	phiRecovered *obs.Gauge

	ckptSaves           *obs.Counter
	ckptBytes           *obs.Counter
	ckptSaveSeconds     *obs.Histogram
	ckptSnapshotSeconds *obs.Histogram
	ckptRestores        *obs.Counter
	ckptRestoreAttempts *obs.Counter
	ckptRestoreFail     *obs.Counter
	ckptReject          map[string]*obs.Counter

	opPlace, opRelease, opBatch, opSolve, opRepack obs.OpID
	opCkptEncode, opCkptValidate, opCkptInstall    obs.OpID

	batchMaxN int

	started time.Time
}

// initMetrics registers every scheduler family in a registry of the
// scheduler's own and interns the span operations in its own 1024-span
// ring. Called once from New, before any goroutine starts.
func (s *Scheduler) initMetrics() {
	m := &s.met
	reg, tr := obs.NewRegistry(), obs.NewTrace(1024)
	m.reg, m.tr = reg, tr
	m.started = time.Now()

	m.placed = reg.Counter("soar_sched_admissions_total",
		"Tenants admitted (successful Place commits).", nil)
	m.released = reg.Counter("soar_sched_releases_total",
		"Leases released.", nil)
	m.notFound = reg.Counter("soar_sched_release_notfound_total",
		"Releases of unknown tenant ids.", nil)
	m.conflicts = reg.Counter("soar_sched_conflicts_total",
		"Batch placements re-solved at commit after losing a capacity race.", nil)
	m.splits = reg.Counter("soar_sched_split_solves_total",
		"Dispatcher solves whose dense flush was split across the idle worker pool.", nil)
	m.batches = reg.Counter("soar_sched_batches_total",
		"Batches dispatched.", nil)
	m.batchSize = reg.Histogram("soar_sched_batch_size",
		"Requests coalesced per batch.", nil, obs.SizeBuckets())
	m.batchMax = reg.Gauge("soar_sched_batch_max",
		"Largest batch observed.", nil)
	m.queueWait = reg.Histogram("soar_sched_queue_wait_seconds",
		"Time a request waited in the queue, submission to the start of its batch.", nil, obs.LatencyBuckets())
	m.placeSeconds = reg.Histogram("soar_sched_place_seconds",
		"Admission latency, submission to commit.", nil, obs.LatencyBuckets())
	m.releaseSeconds = reg.Histogram("soar_sched_release_seconds",
		"Release latency, submission to ledger credit.", nil, obs.LatencyBuckets())
	m.repackRounds = reg.Counter("soar_sched_repack_rounds_total",
		"Background re-packing rounds run.", nil)
	m.repackMoves = reg.Counter("soar_sched_repack_moves_total",
		"Tenants migrated by the re-packer.", nil)
	m.phiRecovered = reg.Gauge("soar_sched_repack_phi_recovered",
		"Aggregate utilization cost recovered by re-packing.", nil)

	m.ckptSaves = reg.Counter("soar_ckpt_saves_total",
		"Checkpoints encoded.", nil)
	m.ckptBytes = reg.Counter("soar_ckpt_bytes_total",
		"Checkpoint bytes written.", nil)
	m.ckptSaveSeconds = reg.Histogram("soar_ckpt_save_seconds",
		"Checkpoint snapshot-and-encode duration.", nil, obs.LatencyBuckets())
	m.ckptSnapshotSeconds = reg.Histogram("soar_ckpt_snapshot_seconds",
		"Time a checkpoint held the commit lock to copy the lease table: the pause admissions see.", nil, obs.LatencyBuckets())
	m.ckptRestores = reg.Counter("soar_ckpt_restores_total",
		"Checkpoints restored.", nil)
	m.ckptRestoreAttempts = reg.Counter("soar_ckpt_restore_attempts_total",
		"Checkpoint restores attempted (accepted plus rejected).", nil)
	m.ckptRestoreFail = reg.Counter("soar_ckpt_restore_failures_total",
		"Checkpoint restores rejected (version, fingerprint, checksum or conservation).", nil)
	m.ckptReject = make(map[string]*obs.Counter, len(restoreRejectReasons))
	for _, reason := range restoreRejectReasons {
		m.ckptReject[reason] = reg.Counter("soar_ckpt_restore_reject_total",
			"Checkpoint restores rejected, by rejection reason.", obs.Labels{"reason": reason})
	}

	reg.CounterFunc("soar_sched_rejected_total",
		"Requests failing validation before reaching the queue.", nil,
		func() float64 { return float64(s.rejected.Load()) })
	reg.GaugeFunc("soar_sched_uptime_seconds",
		"Seconds since the scheduler started.", nil,
		func() float64 { return time.Since(m.started).Seconds() })
	reg.GaugeFunc("soar_sched_tenants",
		"Active leases.", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.tab.leases))
		})
	reg.GaugeFunc("soar_sched_capacity_used",
		"Lease slots currently charged across all switches.", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			var used int64
			for v := 0; v < s.tab.ledger.N(); v++ {
				used += int64(s.tab.ledger.Used(v))
			}
			return float64(used)
		})
	reg.GaugeFunc("soar_sched_capacity_total",
		"Total lease slots across all switches.", nil,
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			var total int64
			for v := 0; v < s.tab.ledger.N(); v++ {
				total += int64(s.tab.ledger.Initial(v))
			}
			return float64(total)
		})

	m.opPlace = tr.Op("sched.place")
	m.opRelease = tr.Op("sched.release")
	m.opBatch = tr.Op("sched.batch")
	m.opSolve = tr.Op("sched.solve")
	m.opRepack = tr.Op("sched.repack")
	m.opCkptEncode = tr.Op("ckpt.encode")
	m.opCkptValidate = tr.Op("ckpt.validate")
	m.opCkptInstall = tr.Op("ckpt.install")
}

// notePlace records one committed admission: span v1 is the number of
// leased switches, v2 is 1 if the placement was re-solved at commit.
//
//soar:hotpath
func (m *metrics) notePlace(t0 time.Time, blues int64, conflicted bool) {
	d := time.Since(t0)
	m.placed.Inc()
	m.placeSeconds.Observe(d.Seconds())
	v2 := int64(0)
	if conflicted {
		v2 = 1
	}
	m.tr.Record(m.opPlace, t0, d, blues, v2)
}

// noteRelease records one release: span v1 is 1 on success, 0 for an
// unknown tenant.
//
//soar:hotpath
func (m *metrics) noteRelease(ok bool, t0 time.Time) {
	d := time.Since(t0)
	v1 := int64(0)
	if ok {
		m.released.Inc()
		v1 = 1
	} else {
		m.notFound.Inc()
	}
	m.releaseSeconds.Observe(d.Seconds())
	m.tr.Record(m.opRelease, t0, d, v1, 0)
}

//soar:hotpath
func (m *metrics) noteBatch(size int) {
	m.batches.Inc()
	m.batchSize.Observe(float64(size))
	if size > m.batchMaxN {
		m.batchMaxN = size
		m.batchMax.Set(float64(size))
	}
}

// noteBatchSpan records the whole batch's span: v1 is the batch size,
// v2 the number of placements solved.
//
//soar:hotpath
func (m *metrics) noteBatchSpan(t0 time.Time, size, places int) {
	m.tr.Record(m.opBatch, t0, time.Since(t0), int64(size), int64(places))
}

// noteSolve records one engine solve's span: v1 is the budget k, v2 the
// number of switches whose tables the solve recomputed (the dirty-path
// length for a sparse tenant, every switch for a dense one).
//
//soar:hotpath
func (m *metrics) noteSolve(t0 time.Time, k, recomputed int64) {
	m.tr.Record(m.opSolve, t0, time.Since(t0), k, recomputed)
}

//soar:hotpath
func (m *metrics) noteRepack(moved int, recovered float64) {
	m.repackRounds.Inc()
	m.repackMoves.Add(uint64(moved))
	m.phiRecovered.Add(recovered)
}

// Registry returns the scheduler's metrics registry, created by New.
// Scrape it with WriteText; naas serves it as GET /metrics.
func (s *Scheduler) Registry() *obs.Registry { return s.met.reg }

// Trace returns the scheduler's span ring: per-stage timings for the
// most recent operations (sched.place, sched.batch, sched.solve,
// sched.release, sched.repack, ckpt.*).
func (s *Scheduler) Trace() *obs.Trace { return s.met.tr }
