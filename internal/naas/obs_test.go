package naas

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"soar/internal/obs"
	"soar/internal/paper"
)

// TestObservabilityEndpoints drives the full HTTP surface the way a
// monitoring stack would: admit and release tenants, pull a
// checkpoint, replay a lease over the loopback cluster, then scrape
// GET /metrics and assert every subsystem's families are present and
// moving; /v1/trace must show the per-stage spans and /v1/stats the
// cluster-run summary.
func TestObservabilityEndpoints(t *testing.T) {
	tr, loads := paper.Figure2()
	_, srv := serveScheduler(t, tr, 2)
	c := NewClient(srv.URL, nil)
	ctx := context.Background()

	lease, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	lease2, err := c.Place(ctx, loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, lease2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(ctx, io.Discard); err != nil {
		t.Fatal(err)
	}
	cres, err := c.ClusterRun(ctx, lease.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Degraded {
		t.Fatalf("loopback cluster run degraded: %+v", cres)
	}
	if cres.Cost != lease.Phi {
		t.Fatalf("cluster replay cost %v != lease φ %v (same problem, same DP)", cres.Cost, lease.Phi)
	}

	// Scrape and parse. Every subsystem must have registered, and the
	// families the calls above touched must be nonzero.
	fams, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.TextFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	sum := func(name string) float64 {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing from scrape", name)
		}
		var total float64
		for _, smp := range f.Samples {
			total += smp.Value
		}
		return total
	}
	for name, want := range map[string]float64{
		"soar_sched_admissions_total": 2,
		"soar_sched_releases_total":   1,
		"soar_ckpt_saves_total":       1,
		"soar_cluster_runs_total":     1,
	} {
		if got := sum(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{
		"soar_sched_batches_total",
		"soar_cluster_frames_total", "soar_ckpt_bytes_total",
	} {
		if got := sum(name); got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}
	if got := sum("soar_cluster_degraded_total"); got != 0 {
		t.Errorf("degraded = %v on a healthy loopback", got)
	}

	// The histogram invariants must hold on a real scrape too.
	raw, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if ct := raw.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	var buf bytes.Buffer
	io.Copy(&buf, raw.Body)
	parsed, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var hist obs.TextFamily
	for _, f := range parsed {
		if f.Name == "soar_sched_place_seconds" {
			hist = f
		}
	}
	bounds, cum, _, err := obs.HistogramSeries(hist, nil)
	if err != nil {
		t.Fatalf("place_seconds histogram invalid: %v", err)
	}
	if len(bounds) == 0 || cum[len(cum)-1] != 2 {
		t.Fatalf("place_seconds count = %v, want 2 admissions", cum)
	}

	// Trace: the ring must hold spans for admission and cluster stages.
	spans, err := c.Trace(ctx, 512)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for _, ev := range spans {
		ops[ev.Op] = true
	}
	for _, want := range []string{"sched.place", "sched.batch", "ckpt.encode", "cluster.run", "cluster.send"} {
		if !ops[want] {
			t.Errorf("trace ring has no %s span (saw %v)", want, ops)
		}
	}

	// Stats: the cluster summary rides along and old clients still parse.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants != 1 {
		t.Fatalf("stats tenants = %d, want 1", st.Tenants)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var full struct {
		Tenants int   `json:"Tenants"`
		Runs    int64 `json:"cluster_runs"`
		Last    int   `json:"last_run_attempts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if full.Runs != 1 || full.Last != 1 || full.Tenants != 1 {
		t.Fatalf("stats cluster summary = %+v, want 1 run in 1 attempt", full)
	}
}
