package naas

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"soar/internal/ha"
	"soar/internal/obs"
	"soar/internal/topology"
)

// TestProbeSurfaceOfEveryFront: the three muxes a daemon can serve —
// single-node, sharded, and a -join mirror before promotion — answer the
// supervisor-facing routes from one implementation: same status per
// front state, JSON probes, a Prometheus-typed scrape, and 405 for
// anything but GET. (The mirror's mux used to serve /metrics untyped and
// take any method on every route.)
func TestProbeSurfaceOfEveryFront(t *testing.T) {
	cl := newTestCluster(t)
	m, err := ha.NewMirror(topology.CompleteKAry(3, 4), 1, cl.Status()[0].PrimaryAddr, ha.MirrorConfig{
		Shard: 0, Node: 999, Heartbeat: 25 * time.Millisecond, MissBudget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	svc := NewService(topology.CompleteKAry(3, 4), 2)
	t.Cleanup(svc.Close)

	for _, front := range []struct {
		name    string
		handler http.Handler
		ready   int    // GET /v1/readyz
		status  string // … and the status it reports
		shards  bool   // serves /v1/shards
	}{
		{"service", svc.Handler(), http.StatusOK, "ready", false},
		{"sharded", NewSharded(cl).Handler(), http.StatusOK, "ready", true},
		{"mirror", MirrorHandler(m), http.StatusServiceUnavailable, "standby", true},
	} {
		srv := httptest.NewServer(front.handler)
		routes := []struct {
			path, ctype string
			status      int
		}{
			{"/v1/healthz", "application/json", http.StatusOK},
			{"/v1/readyz", "application/json", front.ready},
			{"/metrics", obs.TextContentType, http.StatusOK},
		}
		if front.shards {
			routes = append(routes, struct {
				path, ctype string
				status      int
			}{"/v1/shards", "application/json", http.StatusOK})
		}
		for _, rt := range routes {
			resp, err := http.Get(srv.URL + rt.path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != rt.status || resp.Header.Get("Content-Type") != rt.ctype {
				t.Errorf("%s: GET %s = %d %q, want %d %q", front.name, rt.path,
					resp.StatusCode, resp.Header.Get("Content-Type"), rt.status, rt.ctype)
			}
			if rt.path == "/v1/readyz" {
				var body map[string]string
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["status"] != front.status {
					t.Errorf("%s: readyz says %q (%v), want %q", front.name, body["status"], err, front.status)
				}
			}
			resp.Body.Close()
			resp, err = http.Post(srv.URL+rt.path, "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s: POST %s = %d, want 405", front.name, rt.path, resp.StatusCode)
			}
		}
		srv.Close()
	}

	// A mirror reports where its table stands, and nothing of a journal.
	rec := httptest.NewRecorder()
	MirrorHandler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shards", nil))
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shard", "synced", "epoch", "seq"} {
		if _, ok := got[key]; !ok {
			t.Errorf("mirror /v1/shards lacks %q: %v", key, got)
		}
	}
	if _, ok := got["journal"]; ok || len(got) != 4 {
		t.Errorf("mirror /v1/shards = %v, want exactly shard, synced, epoch, seq", got)
	}
}
