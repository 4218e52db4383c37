package naas

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"soar/internal/ha"
	"soar/internal/obs"
	"soar/internal/sched"
	"soar/internal/topology"
)

// reply is what one request to a front is expected to answer.
type reply struct {
	status int
	ctype  string
}

const (
	jsonType = "application/json"
	binType  = "application/octet-stream"
	// muxType is net/http's own 404 for a route a mux does not have.
	muxType = "text/plain; charset=utf-8"
)

func j(status int) reply { return reply{status, jsonType} }

// TestProbeSurfaceOfEveryFront walks every route × method of the three
// muxes a daemon can serve — single-node, sharded, and a -join mirror
// before promotion — and checks status and Content-Type against one
// table. The single node and the cluster run the same handlers and
// differ only in how ?shard resolves: a single node is shard 0 and
// answers without ?shard; a cluster needs ?shard=K on every
// per-scheduler route except /metrics, whose bare page is the cluster's
// own. Every JSON error carries an "error" field. A crashed shard then
// answers 503 on its tenant and per-scheduler routes while the others
// keep serving.
func TestProbeSurfaceOfEveryFront(t *testing.T) {
	tr := topology.CompleteKAry(3, 4)
	// A failover that never comes: the standbys' silence budget outlasts
	// the test, so a crashed shard stays headless and routing gives up
	// after RouteTimeout.
	cl, err := ha.NewCluster(tr, ha.Options{
		Level:        1,
		Replicas:     1,
		Heartbeat:    25 * time.Millisecond,
		MissBudget:   1 << 20,
		RouteTimeout: 100 * time.Millisecond,
		Sched:        sched.Config{Capacity: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	m, err := ha.NewMirror(tr, 1, cl.Status()[0].PrimaryAddr, ha.MirrorConfig{
		Shard: 0, Node: 999, Heartbeat: 25 * time.Millisecond, MissBudget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	single := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(single.Close)

	body := func(load []int) string {
		b, err := json.Marshal(plainPlaceRequest{load, 2})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	place := body(podLocalLoad(cl, 1))
	cross := podLocalLoad(cl, 0)
	for v, n := range podLocalLoad(cl, 2) {
		cross[v] += n
	}

	nf := reply{http.StatusNotFound, muxType} // the mirror has no such route
	metrics := reply{http.StatusOK, obs.TextContentType}
	all := func(r reply) [3]reply { return [3]reply{r, r, r} }
	// {id} is a live lease of the front under test.
	rows := []struct {
		method, path, body string
		want               [3]reply // single, sharded, mirror
	}{
		{"POST", "/v1/tenants", place, [3]reply{j(201), j(201), nf}},
		{"POST", "/v1/tenants", `{"load":[1],"k":1}`, [3]reply{j(400), j(400), nf}},
		{"POST", "/v1/tenants", body(cross), [3]reply{j(201), j(400), nf}},
		{"POST", "/v1/tenants", `{"load":[1],"k":1,"x":0}`, [3]reply{j(400), j(400), nf}},
		{"GET", "/v1/tenants", "", [3]reply{j(405), j(405), nf}},
		{"GET", "/v1/tenants/{id}", "", [3]reply{j(200), j(200), nf}},
		{"GET", "/v1/tenants/abc", "", [3]reply{j(400), j(400), nf}},
		{"GET", "/v1/tenants/99999", "", [3]reply{j(404), j(404), nf}},
		{"PUT", "/v1/tenants/{id}", "", [3]reply{j(405), j(405), nf}},

		{"GET", "/v1/stats", "", [3]reply{j(200), j(400), nf}},
		{"GET", "/v1/stats?shard=0", "", [3]reply{j(200), j(200), nf}},
		{"GET", "/v1/stats?shard=2", "", [3]reply{j(400), j(200), nf}},
		{"GET", "/v1/stats?shard=3", "", [3]reply{j(400), j(400), nf}},
		{"GET", "/v1/stats?shard=x", "", [3]reply{j(400), j(400), nf}},
		{"POST", "/v1/stats", "", [3]reply{j(405), j(405), nf}},
		{"GET", "/v1/residual", "", [3]reply{j(200), j(400), nf}},
		{"GET", "/v1/residual?shard=1", "", [3]reply{j(400), j(200), nf}},
		{"POST", "/v1/residual", "", [3]reply{j(405), j(405), nf}},
		{"GET", "/v1/checkpoint", "", [3]reply{{200, binType}, j(400), nf}},
		{"GET", "/v1/checkpoint?shard=0", "", [3]reply{{200, binType}, {200, binType}, nf}},
		{"POST", "/v1/checkpoint", "", [3]reply{j(503), j(503), nf}}, // no saver
		{"PUT", "/v1/checkpoint", "", [3]reply{j(405), j(405), nf}},
		{"POST", "/v1/cluster", `{"id":{id}}`, [3]reply{j(200), j(200), nf}},
		{"POST", "/v1/cluster", `{"id":99999}`, [3]reply{j(404), j(404), nf}},
		{"POST", "/v1/cluster", `{"id":"x"}`, [3]reply{j(400), j(400), nf}},
		{"GET", "/v1/cluster", "", [3]reply{j(405), j(405), nf}},
		{"GET", "/v1/trace", "", [3]reply{j(200), j(400), nf}},
		{"GET", "/v1/trace?shard=0&n=8", "", [3]reply{j(200), j(200), nf}},
		{"GET", "/v1/trace?shard=0&n=0", "", [3]reply{j(400), j(400), nf}},
		{"POST", "/v1/trace", "", [3]reply{j(405), j(405), nf}},

		{"GET", "/v1/shards", "", [3]reply{j(404), j(200), j(200)}},
		{"POST", "/v1/shards", "{}", all(j(405))},
		{"GET", "/v1/healthz", "", all(j(200))},
		{"POST", "/v1/healthz", "{}", all(j(405))},
		{"GET", "/v1/readyz", "", [3]reply{j(200), j(200), j(503)}},
		{"POST", "/v1/readyz", "{}", all(j(405))},
		{"GET", "/metrics", "", all(metrics)},
		{"GET", "/metrics?shard=0", "", all(metrics)}, // the mirror has one page
		{"GET", "/metrics?shard=3", "", [3]reply{j(400), j(400), metrics}},
		{"POST", "/metrics", "{}", all(j(405))},

		{"DELETE", "/v1/tenants/{id}", "", [3]reply{{204, ""}, {204, ""}, nf}},
		{"DELETE", "/v1/tenants/{id}", "", [3]reply{j(404), j(404), nf}},
	}

	sharded := NewSharded(cl).Handler()
	fronts := []struct {
		name    string
		handler http.Handler
		ready   string // what GET /v1/readyz reports
	}{
		{"single", FromScheduler(single).Handler(), "ready"},
		{"sharded", sharded, "ready"},
		{"mirror", MirrorHandler(m), "standby"},
	}
	for fi, front := range fronts {
		srv := httptest.NewServer(front.handler)
		id := "1"
		for _, row := range rows {
			path := strings.ReplaceAll(row.path, "{id}", id)
			resp, text := do(t, srv.URL, row.method, path, strings.ReplaceAll(row.body, "{id}", id))
			want := row.want[fi]
			if got := (reply{resp.StatusCode, resp.Header.Get("Content-Type")}); got != want {
				t.Errorf("%s: %s %s = %d %q, want %d %q: %s", front.name, row.method, path,
					got.status, got.ctype, want.status, want.ctype, text)
				continue
			}
			if want.ctype != jsonType {
				continue
			}
			var fields map[string]any
			if err := json.Unmarshal([]byte(text), &fields); err != nil {
				t.Errorf("%s: %s %s: body %q is not a JSON object: %v", front.name, row.method, path, text, err)
				continue
			}
			switch {
			case row.method == "GET" && path == "/v1/readyz":
				if fields["status"] != front.ready {
					t.Errorf("%s: readyz says %v, want %q", front.name, fields["status"], front.ready)
				}
			case want.status >= 400:
				if _, ok := fields["error"]; !ok {
					t.Errorf("%s: %s %s = %d without an error field: %s", front.name, row.method, path, want.status, text)
				}
			case row.method == "POST" && path == "/v1/tenants" && id == "1":
				id = strconv.FormatInt(int64(fields["id"].(float64)), 10)
			}
		}
		srv.Close()
	}

	// Residual ids are those of the scheduler ?shard names: one shard's
	// pod on a cluster.
	srv := httptest.NewServer(sharded)
	t.Cleanup(srv.Close)
	_, text := do(t, srv.URL, "GET", "/v1/residual?shard=1", "")
	var res struct{ Residual []int }
	if err := json.Unmarshal([]byte(text), &res); err != nil || len(res.Residual) != cl.Partitioning().Shards[1].Pod.Tree.N() {
		t.Errorf("GET /v1/residual?shard=1: %d entries (%v), want the pod's %d",
			len(res.Residual), err, cl.Partitioning().Shards[1].Pod.Tree.N())
	}

	// Mid failover: shard 0's primary is gone and no standby takes over.
	// Its tenant and per-scheduler routes answer 503; shard 1 and the
	// cluster page still serve.
	lease, err := cl.Place(podLocalLoad(cl, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cl.CrashPrimary(0) == nil {
		t.Fatal("no primary to crash")
	}
	for _, row := range []struct {
		method, path, body string
		want               reply
	}{
		{"POST", "/v1/tenants", body(podLocalLoad(cl, 0)), j(503)},
		{"DELETE", fmt.Sprintf("/v1/tenants/%d", lease.ID), "", j(503)},
		{"GET", "/v1/stats?shard=0", "", j(503)},
		{"GET", "/v1/trace?shard=0", "", j(503)},
		{"GET", "/metrics?shard=0", "", j(503)},
		{"GET", "/v1/stats?shard=1", "", j(200)},
		{"POST", "/v1/tenants", place, j(201)},
		{"GET", "/metrics", "", metrics},
	} {
		resp, text := do(t, srv.URL, row.method, row.path, row.body)
		if got := (reply{resp.StatusCode, resp.Header.Get("Content-Type")}); got != row.want {
			t.Errorf("crashed shard 0: %s %s = %d %q, want %d %q: %s", row.method, row.path,
				got.status, got.ctype, row.want.status, row.want.ctype, text)
		}
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

// do sends one request and returns the response with its body read.
func do(t *testing.T, base, method, path, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(text)
}
