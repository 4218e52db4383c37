package naas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"soar/internal/obs"
)

// HTTP API
//
//	POST   /v1/tenants        {"load": [...], "k": 4}      → Lease JSON
//	GET    /v1/tenants/{id}                                 → Lease JSON
//	DELETE /v1/tenants/{id}                                 → 204
//	GET    /v1/stats                                        → Stats JSON (+ cluster-run summary)
//	GET    /v1/residual                                     → {"residual": [...]}
//	GET    /v1/checkpoint                                   → checkpoint stream (octet-stream)
//	POST   /v1/checkpoint                                   → {"path": ..., "bytes": n} (durable save)
//	POST   /v1/cluster        {"id": 7}                     → cluster-run JSON (loopback replay)
//	GET    /v1/trace?n=64                                   → {"spans": [...]} newest first
//	GET    /v1/healthz                                      → 200 {"status":"ok"} (liveness)
//	GET    /v1/readyz                                       → 200 ready / 503 not restored or draining
//	GET    /metrics                                         → Prometheus text exposition
//
// All request and response bodies are JSON — except /metrics, which
// speaks the Prometheus text format (obs.TextContentType) and
// /v1/checkpoint GET, which streams the binary checkpoint; errors come
// back as {"error": "..."} with an appropriate status code.

// placeRequest is the admission request body.
type placeRequest struct {
	Load loadVec `json:"load"`
	K    int     `json:"k"`
}

// leaseJSON is the wire form of a Lease.
type leaseJSON struct {
	ID     int64   `json:"id"`
	Blue   []int   `json:"blue"`
	K      int     `json:"k"`
	Phi    float64 `json:"phi"`
	AllRed float64 `json:"all_red"`
	Ratio  float64 `json:"ratio"`
}

func toLeaseJSON(l *Lease) leaseJSON {
	blue := l.Blue
	if blue == nil {
		blue = []int{}
	}
	return leaseJSON{
		ID: l.ID, Blue: blue, K: l.K, Phi: l.Phi, AllRed: l.AllRed, Ratio: l.Ratio(),
	}
}

// Handler returns the service's HTTP control plane.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	mux.HandleFunc("/v1/tenants/", s.handleTenantByID)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/residual", s.handleResidual)
	mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/v1/cluster", s.handleCluster)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/healthz", handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	sc := placePool.Get().(*placeScratch)
	defer placePool.Put(sc)
	req, err := decodePlace(http.MaxBytesReader(w, r.Body, maxPlaceBody), sc)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if err := s.s.PlaceInto(req.Load, req.K, &sc.lease); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, toLeaseJSON(&sc.lease))
}

func (s *Service) handleTenantByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/tenants/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad tenant id %q", idStr))
		return
	}
	switch r.Method {
	case http.MethodGet:
		lease, err := s.Lookup(id)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, toLeaseJSON(lease))
	case http.MethodDelete:
		if err := s.Release(id); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET or DELETE only"))
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	// The cluster summary rides along as extra JSON fields; clients
	// decoding into the bare Stats struct silently ignore them.
	writeJSON(w, http.StatusOK, struct {
		Stats
		ClusterStats
	}{s.Snapshot(), s.ClusterSnapshot()})
}

func (s *Service) handleResidual(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string][]int{"residual": s.Residual()})
}

// handleCheckpoint serves the crash-recovery surface: GET streams a
// consistent checkpoint of the control plane to the caller (an operator
// pulling a backup), POST asks the daemon to persist one to its
// configured path (503 when the daemon runs without one).
func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// Encode to a buffer first so a failure can still produce an
		// error status instead of a torn stream.
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(http.StatusOK)
		buf.WriteTo(w) // best effort; the status line is already out
	case http.MethodPost:
		if s.save == nil {
			httpError(w, http.StatusServiceUnavailable, errors.New("no checkpoint path configured"))
			return
		}
		path, size, err := s.save()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"path": path, "bytes": size})
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET or POST only"))
	}
}

// clusterRequest asks for a loopback cluster replay of one lease.
type clusterRequest struct {
	ID int64 `json:"id"`
}

// clusterResultJSON is the wire form of a cluster.Result. Blue is the
// list of blue switch ids, matching the lease JSON convention.
type clusterResultJSON struct {
	Blue           []int   `json:"blue"`
	Cost           float64 `json:"cost"`
	ReduceMessages int64   `json:"reduce_messages"`
	ReducePhi      float64 `json:"reduce_phi"`
	Degraded       bool    `json:"degraded"`
	Attempts       int     `json:"attempts"`
	Cause          string  `json:"cause,omitempty"`
}

// handleCluster replays a lease's problem over the loopback cluster
// runtime (see Service.ClusterRun).
func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req clusterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	res, err := s.ClusterRun(r.Context(), req.ID)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotFound) {
			status = http.StatusNotFound
		}
		httpError(w, status, err)
		return
	}
	out := clusterResultJSON{
		Blue:           []int{},
		Cost:           res.Cost,
		ReduceMessages: res.ReduceMessages,
		ReducePhi:      res.ReducePhi,
		Degraded:       res.Degraded,
		Attempts:       res.Attempts,
	}
	for v, b := range res.Blue {
		if b {
			out.Blue = append(out.Blue, v)
		}
	}
	if res.Cause != nil {
		out.Cause = res.Cause.Error()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace dumps the newest spans from the service's trace ring.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	n := 64
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad span count %q", q))
			return
		}
		n = v
	}
	spans := s.Trace().Dump(n)
	if spans == nil {
		spans = []obs.SpanEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"spans": spans})
}

// handleMetrics serves the Prometheus text exposition of every family
// the service records: scheduler admission/batch/solve, repack,
// checkpoint, and loopback cluster runs.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if getOnly(w, r) {
		serveMetrics(w, s.Registry())
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) // best effort; the status line is already out
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
