package cluster

import (
	"time"

	"soar/internal/obs"
)

// This file is the cluster runtime's observability surface. A Metrics
// carries the obs handles one deployment's runs record into: run
// outcomes and durations, per-frame send/recv counts, dial retries,
// and the RunOrFallback degradation counters that satellite operators
// actually page on. Passing one through Options.Metrics is opt-in —
// a nil *Metrics is valid everywhere and records nothing, so tests
// and one-shot CLI runs pay nothing.

// Metrics holds the cluster families registered in one obs.Registry
// plus the span ring frame timings are recorded into. Create with
// NewMetrics; share one per registry (a second NewMetrics on the same
// registry panics on the duplicate families). All record paths are
// nil-receiver-safe.
type Metrics struct {
	runs        *obs.Counter
	runErrors   *obs.Counter
	degraded    *obs.Counter
	attempts    *obs.Counter
	dialRetries *obs.Counter
	framesSent  *obs.Counter
	framesRecv  *obs.Counter
	runSeconds  *obs.Histogram

	tr                            *obs.Trace
	opRun, opDial, opSend, opRecv obs.OpID
}

// NewMetrics registers the soar_cluster_* families in reg and interns
// the cluster span operations in tr (nil gets a private 256-span
// ring). The returned Metrics is safe for concurrent use by any
// number of simultaneous runs.
func NewMetrics(reg *obs.Registry, tr *obs.Trace) *Metrics {
	if tr == nil {
		tr = obs.NewTrace(256)
	}
	m := &Metrics{tr: tr}
	m.runs = reg.Counter("soar_cluster_runs_total",
		"Distributed runs attempted.", nil)
	m.runErrors = reg.Counter("soar_cluster_run_errors_total",
		"Distributed runs failed on a transport or protocol error.", nil)
	m.degraded = reg.Counter("soar_cluster_degraded_total",
		"RunOrFallback calls answered by the local fallback solve.", nil)
	m.attempts = reg.Counter("soar_cluster_attempts_total",
		"Whole-run attempts made by RunOrFallback.", nil)
	m.dialRetries = reg.Counter("soar_cluster_dial_retries_total",
		"Parent dial attempts beyond each first try.", nil)
	m.framesSent = reg.Counter("soar_cluster_frames_total",
		"Protocol frames moved, by direction.", obs.Labels{"dir": "send"})
	m.framesRecv = reg.Counter("soar_cluster_frames_total",
		"Protocol frames moved, by direction.", obs.Labels{"dir": "recv"})
	m.runSeconds = reg.Histogram("soar_cluster_run_seconds",
		"Distributed run duration, listeners up to Reduce done.", nil, obs.LatencyBuckets())
	m.opRun = tr.Op("cluster.run")
	m.opDial = tr.Op("cluster.dial")
	m.opSend = tr.Op("cluster.send")
	m.opRecv = tr.Op("cluster.recv")
	return m
}

// Trace returns the span ring cluster frame timings land in.
func (m *Metrics) Trace() *obs.Trace {
	if m == nil {
		return nil
	}
	return m.tr
}

// noteRun records one whole run's outcome. Span v1 is the switch
// count, v2 flags failure.
func (m *Metrics) noteRun(t0 time.Time, n int, err error) {
	if m == nil {
		return
	}
	d := time.Since(t0)
	m.runs.Inc()
	m.runSeconds.Observe(d.Seconds())
	v2 := int64(0)
	if err != nil {
		m.runErrors.Inc()
		v2 = 1
	}
	m.tr.Record(m.opRun, t0, d, int64(n), v2)
}

// noteFrame records one frame exchange. Span v1 flags failure.
func (m *Metrics) noteFrame(isRecv bool, t0 time.Time, err error) {
	if m == nil {
		return
	}
	v1 := int64(0)
	if err != nil {
		v1 = 1
	}
	op := m.opSend
	if isRecv {
		op = m.opRecv
		m.framesRecv.Inc()
	} else {
		m.framesSent.Inc()
	}
	m.tr.Record(op, t0, time.Since(t0), v1, 0)
}

// noteDial records one completed dial loop: attempts beyond the first
// count as retries. Span v1 is the total attempts, v2 flags failure.
func (m *Metrics) noteDial(t0 time.Time, attempts int, err error) {
	if m == nil {
		return
	}
	if attempts > 1 {
		m.dialRetries.Add(uint64(attempts - 1))
	}
	v2 := int64(0)
	if err != nil {
		v2 = 1
	}
	m.tr.Record(m.opDial, t0, time.Since(t0), int64(attempts), v2)
}

// noteAttempts adds RunOrFallback's whole-run attempt count.
func (m *Metrics) noteAttempts(n int) {
	if m == nil {
		return
	}
	m.attempts.Add(uint64(n))
}

// noteDegraded counts one fallback to the local solve.
func (m *Metrics) noteDegraded() {
	if m == nil {
		return
	}
	m.degraded.Inc()
}
