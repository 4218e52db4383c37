package naas

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"

	"soar/internal/ha"
	"soar/internal/obs"
)

// probes is the supervisor-facing state of a serving front — Front
// embeds it — with the handler that reads it. GET /v1/readyz
// reports ready once the front's state is in place (constructors start
// true; a daemon restoring a checkpoint clears it until the restore
// lands) and stops the moment draining begins — before the final
// checkpoint — so load balancers stop routing while in-flight requests
// still complete. GET /v1/healthz (handleHealthz) ignores both: it only
// proves the process answers.
type probes struct {
	ready    atomic.Bool
	draining atomic.Bool
}

// SetReady flips the readiness half of GET /v1/readyz. The daemon
// clears it before restoring a checkpoint and sets it once the restore
// (or an empty start) completes.
func (p *probes) SetReady(v bool) { p.ready.Store(v) }

// SetDraining marks the front as shutting down: GET /v1/readyz starts
// failing immediately so load balancers drain, while every other
// endpoint keeps answering until the listener closes. Call it before
// the final checkpoint save, not after.
func (p *probes) SetDraining(v bool) { p.draining.Store(v) }

// Ready reports whether the front should receive new traffic: its state
// in place and not draining.
func (p *probes) Ready() bool { return p.ready.Load() && !p.draining.Load() }

// Draining reports whether shutdown has begun.
func (p *probes) Draining() bool { return p.draining.Load() }

// getOnly answers anything but a GET with 405 and reports whether the
// request may proceed.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return false
	}
	return true
}

// handleHealthz is the liveness probe of every front: answering at all
// is the signal, so it consults no state.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
}

// handleReadyz is the readiness probe: 200 only when the front has its
// state in place and is not draining toward shutdown.
func (p *probes) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	switch {
	case p.Ready():
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	case p.Draining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
	}
}

// serveMetrics answers a scrape with reg's Prometheus text exposition,
// rendered to a buffer first so a (never-expected) encoding failure
// cannot emit a torn scrape.
func serveMetrics(w http.ResponseWriter, reg *obs.Registry) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	buf.WriteTo(w) // best effort; the status line is already out
}

// MirrorHandler is the surface of a -join replica before promotion:
// liveness, standby readiness (always 503), replication progress under
// GET /v1/shards, and the mirror's metrics.
func MirrorHandler(m *ha.Mirror) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", handleHealthz)
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if getOnly(w, r) {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "standby"})
		}
	})
	mux.HandleFunc("/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		if !getOnly(w, r) {
			return
		}
		st := m.Status()
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"shard": m.Shard(), "synced": st.Synced, "epoch": st.Epoch, "seq": st.Seq,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if getOnly(w, r) {
			serveMetrics(w, m.Registry())
		}
	})
	return mux
}
