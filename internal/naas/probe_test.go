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

// TestProbeSurfaceOfEveryFront walks every route × method of the two
// muxes a daemon can serve — single-node and sharded — and checks
// status and Content-Type against one table. The single node and the
// cluster run the same handlers and differ only in how ?shard resolves:
// a single node is shard 0 and answers without ?shard; a cluster needs
// ?shard=K on every per-scheduler route except /metrics, whose bare
// page is the cluster's own. Every JSON error carries an "error" field.
// A crashed shard then answers 503 on its tenant and per-scheduler
// routes while the others keep serving.
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

	nf := reply{http.StatusNotFound, muxType} // no such route
	metrics := reply{http.StatusOK, obs.TextContentType}
	both := func(r reply) [2]reply { return [2]reply{r, r} }
	// {id} is a live lease of the front under test.
	rows := []struct {
		method, path, body string
		want               [2]reply // single, sharded
	}{
		{"POST", "/v1/tenants", place, [2]reply{j(201), j(201)}},
		{"POST", "/v1/tenants", `{"load":[1],"k":1}`, [2]reply{j(400), j(400)}},
		{"POST", "/v1/tenants", body(cross), [2]reply{j(201), j(400)}},
		{"POST", "/v1/tenants", `{"load":[1],"k":1,"x":0}`, [2]reply{j(400), j(400)}},
		{"GET", "/v1/tenants", "", [2]reply{j(405), j(405)}},
		{"GET", "/v1/tenants/{id}", "", [2]reply{j(200), j(200)}},
		{"GET", "/v1/tenants/abc", "", [2]reply{j(400), j(400)}},
		{"GET", "/v1/tenants/99999", "", [2]reply{j(404), j(404)}},
		{"PUT", "/v1/tenants/{id}", "", [2]reply{j(405), j(405)}},

		{"GET", "/v1/stats", "", [2]reply{j(200), j(400)}},
		{"GET", "/v1/stats?shard=0", "", [2]reply{j(200), j(200)}},
		{"GET", "/v1/stats?shard=2", "", [2]reply{j(400), j(200)}},
		{"GET", "/v1/stats?shard=3", "", [2]reply{j(400), j(400)}},
		{"GET", "/v1/stats?shard=x", "", [2]reply{j(400), j(400)}},
		{"POST", "/v1/stats", "", [2]reply{j(405), j(405)}},
		{"GET", "/v1/residual", "", [2]reply{j(200), j(400)}},
		{"GET", "/v1/residual?shard=1", "", [2]reply{j(400), j(200)}},
		{"POST", "/v1/residual", "", [2]reply{j(405), j(405)}},
		{"GET", "/v1/checkpoint", "", [2]reply{{200, binType}, j(400)}},
		{"GET", "/v1/checkpoint?shard=0", "", [2]reply{{200, binType}, {200, binType}}},
		{"POST", "/v1/checkpoint", "", [2]reply{j(503), j(503)}}, // no saver
		{"PUT", "/v1/checkpoint", "", [2]reply{j(405), j(405)}},
		{"POST", "/v1/cluster", `{"id":{id}}`, both(nf)}, // no loopback replay route
		{"GET", "/v1/trace", "", [2]reply{j(200), j(400)}},
		{"GET", "/v1/trace?shard=0&n=8", "", [2]reply{j(200), j(200)}},
		{"GET", "/v1/trace?shard=0&n=0", "", [2]reply{j(400), j(400)}},
		{"POST", "/v1/trace", "", [2]reply{j(405), j(405)}},

		{"GET", "/v1/shards", "", [2]reply{j(404), j(200)}},
		{"POST", "/v1/shards", "{}", both(j(405))},
		{"GET", "/v1/healthz", "", both(j(200))},
		{"POST", "/v1/healthz", "{}", both(j(405))},
		{"GET", "/v1/readyz", "", both(j(200))},
		{"POST", "/v1/readyz", "{}", both(j(405))},
		{"GET", "/metrics", "", both(metrics)},
		{"GET", "/metrics?shard=0", "", both(metrics)},
		{"GET", "/metrics?shard=3", "", both(j(400))},
		{"POST", "/metrics", "{}", both(j(405))},

		{"DELETE", "/v1/tenants/{id}", "", [2]reply{{204, ""}, {204, ""}}},
		{"DELETE", "/v1/tenants/{id}", "", [2]reply{j(404), j(404)}},
	}

	sharded := NewSharded(cl).Handler()
	fronts := []struct {
		name    string
		handler http.Handler
	}{
		{"single", FromScheduler(single).Handler()},
		{"sharded", sharded},
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
				if fields["status"] != "ready" {
					t.Errorf("%s: readyz says %v, want ready", front.name, fields["status"])
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

	// The cluster's bare page is its soar_ha_* families alone.
	text, sums := scrape(t, srv.URL+"/metrics")
	if _, ok := sums["soar_ha_failovers_total"]; !ok {
		t.Errorf("sharded bare /metrics has no soar_ha_failovers_total:\n%s", text)
	}
	for name := range sums {
		if !strings.HasPrefix(name, "soar_ha_") {
			t.Errorf("sharded bare /metrics serves %s, not a soar_ha_* family", name)
		}
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
