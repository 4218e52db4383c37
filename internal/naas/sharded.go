package naas

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"soar/internal/ha"
	"soar/internal/sched"
)

// Sharded is the shard-aware routing front over a replicated control
// plane (ha.Cluster): the same tenant API as Service, but admissions
// resolve to the pod shard their load lives in and ride out failovers
// behind the cluster's routing retries. It adds the operator surface a
// replicated deployment needs:
//
//	GET /v1/shards       → {"shards": [...]} membership per shard
//	GET /metrics         → cluster families (soar_ha_*)
//	GET /metrics?shard=K → shard K's serving scheduler families
//
// The split scrape keeps exposition well-formed: every shard registers
// the same scheduler families (soar_sched_*, soar_ckpt_*, …) in its
// own per-incarnation registry, so merging them into one page would
// emit duplicate family definitions.
type Sharded struct {
	probes
	cl *ha.Cluster
}

// NewSharded fronts an already-running cluster. The front does not own
// the cluster: closing it is the caller's job, after the HTTP listener
// stops.
func NewSharded(cl *ha.Cluster) *Sharded {
	f := &Sharded{cl: cl}
	f.ready.Store(true)
	return f
}

// Cluster exposes the replicated control plane behind the front.
func (f *Sharded) Cluster() *ha.Cluster { return f.cl }

// ShardInfo is the wire form of one shard's membership (GET
// /v1/shards), mirroring ha.ShardStatus. PrimaryNode is -1 while the
// shard is failing over.
type ShardInfo struct {
	Index       int    `json:"index"`
	Root        int    `json:"root"`
	Epoch       uint64 `json:"epoch"`
	PrimaryNode int    `json:"primary_node"`
	PrimaryAddr string `json:"primary_addr"`
	Standbys    int    `json:"standbys"`
	Seq         uint64 `json:"seq"`
	Tenants     int    `json:"tenants"`
}

// Handler returns the front's HTTP control plane.
func (f *Sharded) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tenants", f.handleTenants)
	mux.HandleFunc("/v1/tenants/", f.handleTenantByID)
	mux.HandleFunc("/v1/shards", f.handleShards)
	mux.HandleFunc("/v1/healthz", handleHealthz)
	mux.HandleFunc("/v1/readyz", f.handleReadyz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	return mux
}

// shardedStatus maps a routing error to its HTTP status: a load that
// no single shard can serve is the client's problem, a shard stuck
// without a primary past the routing budget is the cluster's.
func shardedStatus(err error) int {
	switch {
	case errors.Is(err, ha.ErrCrossShard):
		return http.StatusBadRequest
	case errors.Is(err, ha.ErrNoPrimary):
		return http.StatusServiceUnavailable
	case errors.Is(err, sched.ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (f *Sharded) handleTenants(w http.ResponseWriter, r *http.Request) {
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
	lease, err := f.cl.Place(req.Load, req.K)
	if err != nil {
		httpError(w, shardedStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, toLeaseJSON(lease))
}

func (f *Sharded) handleTenantByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/tenants/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad tenant id %q", idStr))
		return
	}
	switch r.Method {
	case http.MethodGet:
		lease, err := f.cl.Lookup(id)
		if err != nil {
			httpError(w, shardedStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, toLeaseJSON(lease))
	case http.MethodDelete:
		if err := f.cl.Release(id); err != nil {
			httpError(w, shardedStatus(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET or DELETE only"))
	}
}

func (f *Sharded) handleShards(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	status := f.cl.Status()
	shards := make([]ShardInfo, len(status))
	for i, st := range status {
		shards[i] = ShardInfo{
			Index: st.Index, Root: st.Root, Epoch: st.Epoch,
			PrimaryNode: st.PrimaryNode, PrimaryAddr: st.PrimaryAddr,
			Standbys: st.Standbys, Seq: st.Seq, Tenants: st.Tenants,
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"shards": shards})
}

// handleMetrics serves the cluster's soar_ha_* families; ?shard=K
// serves shard K's scheduler registry instead (503 mid failover, when
// the shard has no serving incarnation to scrape).
func (f *Sharded) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	reg := f.cl.Registry()
	if q := r.URL.Query().Get("shard"); q != "" {
		k, err := strconv.Atoi(q)
		if err != nil || k < 0 || k >= f.cl.Shards() {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", q))
			return
		}
		if reg = f.cl.ShardRegistry(k); reg == nil {
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("shard %d has no serving primary", k))
			return
		}
	}
	serveMetrics(w, reg)
}
