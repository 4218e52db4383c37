// Package naas turns SOAR into the Network-as-a-Service building block
// the paper sketches in its introduction: "cloud providers can offer
// such a service as part of their NaaS offerings, where each client can
// choose its required amount of aggregation switches based on the
// performance it needs."
//
// Tenants arrive online with a load vector and a requested budget k;
// the control plane places their aggregation switches with SOAR against
// the residual capacities (exactly the Sec. 5.2 online model), leases
// the switches to the tenant, and — extending the paper's model, which
// has arrivals only — reclaims them when the tenant departs. Admission,
// concurrency control and residual bookkeeping live in internal/sched;
// replication and sharding across pods in internal/ha.
//
// A Front is the JSON control plane over either: FromScheduler serves
// one scheduler, NewSharded a replicated cluster. Both get the same
// routes, handlers and error statuses (Handler); they differ only in
// which scheduler a request's ?shard=K names. Client (client.go) is the
// Go consumer.
package naas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"soar/internal/ha"
	"soar/internal/obs"
	"soar/internal/sched"
)

// ErrNotFound is returned for operations on unknown tenant ids.
var ErrNotFound = sched.ErrNotFound

// Lease describes one tenant's allocation.
type Lease = sched.Lease

// Stats summarizes one scheduler's state.
type Stats = sched.Stats

// HTTP API
//
//	POST   /v1/tenants        {"load": [...], "k": 4}      → Lease JSON
//	GET    /v1/tenants/{id}                                 → Lease JSON
//	DELETE /v1/tenants/{id}                                 → 204
//	GET    /v1/stats                                        → Stats JSON
//	GET    /v1/residual                                     → {"residual": [...]}
//	GET    /v1/checkpoint                                   → checkpoint stream (octet-stream)
//	POST   /v1/checkpoint                                   → {"path": ..., "bytes": n} (durable save)
//	GET    /v1/trace?n=64                                   → {"spans": [...]} newest first
//	GET    /v1/shards                                       → {"shards": [...]} (sharded front only)
//	GET    /v1/healthz                                      → 200 {"status":"ok"} (liveness)
//	GET    /v1/readyz                                       → 200 ready / 503 not restored or draining
//	GET    /metrics                                         → Prometheus text exposition
//
// Stats, residual, checkpoint GET, trace and metrics read one scheduler:
// ?shard=K names shard K (a single node is shard 0; out of range is 400,
// a shard mid-failover 503). Without ?shard a single node answers from
// its scheduler, while a cluster serves its soar_ha_* families on
// /metrics and answers 400 on the others, since no one shard speaks
// for it. Residual ids under ?shard=K are shard-local. Tenant ids
// are global on both fronts.
//
// All bodies are JSON — except /metrics, which speaks the Prometheus
// text format (obs.TextContentType), and GET /v1/checkpoint, which
// streams the binary checkpoint. Errors come back as {"error": "..."}:
// 404 for an unknown tenant, 503 when the server cannot answer now
// (closed, fenced, no primary), 400 for the client's own fault (a load
// spanning pods, malformed input).

// admission is the tenant half of a front. *sched.Scheduler and
// *ha.Cluster both have it.
type admission interface {
	PlaceInto(load []int, k int, lease *Lease) error
	Lookup(id int64) (*Lease, error)
	Release(id int64) error
}

// resolver is where the single node and the cluster differ: which
// scheduler a request addresses, and the membership GET /v1/shards
// reports.
type resolver struct {
	shards  int                          // ?shard=K accepts 0 ≤ K < shards
	shard   func(k int) *sched.Scheduler // nil mid failover
	home    *sched.Scheduler             // serves requests without ?shard; nil refuses them
	members func() []ha.ShardStatus      // nil on a single node
}

// errNotSharded answers GET /v1/shards on a single node.
var errNotSharded = errors.New("naas: not a sharded front")

// resolve returns the scheduler r addresses.
func (p *resolver) resolve(r *http.Request) (*sched.Scheduler, error) {
	q := r.URL.Query().Get("shard")
	if q == "" {
		if p.home == nil {
			return nil, errors.New("naas: a sharded front needs ?shard=K")
		}
		return p.home, nil
	}
	k, err := strconv.Atoi(q)
	if err != nil || k < 0 || k >= p.shards {
		return nil, fmt.Errorf("naas: bad shard %q", q)
	}
	if sch := p.shard(k); sch != nil {
		return sch, nil
	}
	return nil, fmt.Errorf("naas: shard %d: %w", k, ha.ErrNoPrimary)
}

// statusOf is the error → status map of every route.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, errNotSharded):
		return http.StatusNotFound
	case errors.Is(err, sched.ErrClosed), errors.Is(err, ha.ErrNoPrimary), errors.Is(err, ha.ErrFenced):
		return http.StatusServiceUnavailable
	default: // ha.ErrCrossShard and malformed input
		return http.StatusBadRequest
	}
}

// Front is the HTTP control plane over one scheduler or one cluster.
// It does not own what it serves: closing the scheduler or cluster is
// the caller's job, after the HTTP listener stops.
type Front struct {
	probes
	adm  admission
	pick resolver
	// reg is what GET /metrics without ?shard serves.
	reg *obs.Registry

	// save, when set, persists a checkpoint durably (POST /v1/checkpoint
	// and the daemon's periodic/shutdown saves all funnel through it).
	save func() (path string, size int64, err error)
}

// FromScheduler fronts one running scheduler: bare GET /metrics serves
// its registry.
func FromScheduler(sc *sched.Scheduler) *Front {
	return newFront(sc, sc.Registry(), resolver{
		shards: 1,
		shard:  func(int) *sched.Scheduler { return sc },
		home:   sc,
	})
}

// NewSharded fronts a running replicated cluster: admissions resolve to
// the pod shard their load lives in and ride out failovers behind the
// cluster's routing retries. Bare GET /metrics serves the cluster's
// registry — its soar_ha_* families — and ?shard=K shard K's scheduler
// families: every shard registers the same families in its own
// registry, so one merged page would define them twice.
func NewSharded(cl *ha.Cluster) *Front {
	return newFront(cl, cl.Registry(), resolver{
		shards:  cl.Shards(),
		shard:   cl.ShardScheduler,
		members: cl.Status,
	})
}

// newFront serves reg on bare GET /metrics.
func newFront(adm admission, reg *obs.Registry, pick resolver) *Front {
	f := &Front{adm: adm, pick: pick, reg: reg}
	f.ready.Store(true)
	return f
}

// SetCheckpointSaver registers the durable checkpoint sink invoked by
// POST /v1/checkpoint: fn persists a checkpoint and reports where and
// how many bytes. It must be called before the front starts serving
// HTTP traffic (it is not synchronized against the handler).
func (f *Front) SetCheckpointSaver(fn func() (path string, size int64, err error)) {
	f.save = fn
}

// Handler returns the front's HTTP control plane.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tenants", f.handlePlace)
	mux.HandleFunc("/v1/tenants/", f.handleTenantByID)
	mux.HandleFunc("/v1/stats", f.handleStats)
	mux.HandleFunc("/v1/residual", f.handleResidual)
	mux.HandleFunc("/v1/checkpoint", f.handleCheckpoint)
	mux.HandleFunc("/v1/trace", f.handleTrace)
	mux.HandleFunc("/v1/shards", f.handleShards)
	mux.HandleFunc("/v1/healthz", handleHealthz)
	mux.HandleFunc("/v1/readyz", f.handleReadyz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	return mux
}

// scheduler resolves the scheduler r addresses, answering the error
// itself (and returning nil) when there is none.
func (f *Front) scheduler(w http.ResponseWriter, r *http.Request) *sched.Scheduler {
	sch, err := f.pick.resolve(r)
	if err != nil {
		httpError(w, statusOf(err), err)
	}
	return sch
}

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

func (f *Front) handlePlace(w http.ResponseWriter, r *http.Request) {
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
	if err := f.adm.PlaceInto(req.Load, req.K, &sc.lease); err != nil {
		httpError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, toLeaseJSON(&sc.lease))
}

func (f *Front) handleTenantByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/tenants/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad tenant id %q", idStr))
		return
	}
	switch r.Method {
	case http.MethodGet:
		lease, err := f.adm.Lookup(id)
		if err != nil {
			httpError(w, statusOf(err), err)
			return
		}
		writeJSON(w, http.StatusOK, toLeaseJSON(lease))
	case http.MethodDelete:
		if err := f.adm.Release(id); err != nil {
			httpError(w, statusOf(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET or DELETE only"))
	}
}

func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	if sch := f.scheduler(w, r); sch != nil {
		writeJSON(w, http.StatusOK, sch.Snapshot())
	}
}

func (f *Front) handleResidual(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	if sch := f.scheduler(w, r); sch != nil {
		writeJSON(w, http.StatusOK, map[string][]int{"residual": sch.Residual()})
	}
}

// handleCheckpoint serves the crash-recovery surface: GET streams a
// consistent checkpoint of a scheduler to the caller (an operator
// pulling a backup), POST asks the daemon to persist one to its
// configured path (503 when the daemon runs without one).
func (f *Front) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		sch := f.scheduler(w, r)
		if sch == nil {
			return
		}
		// Encode to a buffer first so a failure can still produce an
		// error status instead of a torn stream.
		var buf bytes.Buffer
		if err := sch.Checkpoint(&buf); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(http.StatusOK)
		buf.WriteTo(w) // best effort; the status line is already out
	case http.MethodPost:
		if f.save == nil {
			httpError(w, http.StatusServiceUnavailable, errors.New("no checkpoint path configured"))
			return
		}
		path, size, err := f.save()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"path": path, "bytes": size})
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET or POST only"))
	}
}

// handleTrace dumps the newest spans from a scheduler's trace ring.
func (f *Front) handleTrace(w http.ResponseWriter, r *http.Request) {
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
	sch := f.scheduler(w, r)
	if sch == nil {
		return
	}
	spans := sch.Trace().Dump(n)
	if spans == nil {
		spans = []obs.SpanEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"spans": spans})
}

// ShardInfo is the wire form of one shard's membership (GET
// /v1/shards), mirroring ha.ShardStatus. PrimaryNode is -1 while the
// shard is failing over.
type ShardInfo struct {
	Index       int    `json:"index"`
	Root        int    `json:"root"`
	Epoch       uint64 `json:"epoch"`
	PrimaryNode int    `json:"primary_node"`
	Standbys    int    `json:"standbys"`
	Seq         uint64 `json:"seq"`
	Tenants     int    `json:"tenants"`
}

func (f *Front) handleShards(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	if f.pick.members == nil {
		httpError(w, statusOf(errNotSharded), errNotSharded)
		return
	}
	status := f.pick.members()
	shards := make([]ShardInfo, len(status))
	for i, st := range status {
		shards[i] = ShardInfo{
			Index: st.Index, Root: st.Root, Epoch: st.Epoch,
			PrimaryNode: st.PrimaryNode, Standbys: st.Standbys,
			Seq: st.Seq, Tenants: st.Tenants,
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"shards": shards})
}

// handleMetrics serves the front's own registry, or with ?shard=K the
// scheduler families of shard K.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	reg := f.reg
	if r.URL.Query().Get("shard") != "" {
		sch := f.scheduler(w, r)
		if sch == nil {
			return
		}
		reg = sch.Registry()
	}
	serveMetrics(w, reg)
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
