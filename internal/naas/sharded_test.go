package naas

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"soar/internal/ha"
	"soar/internal/obs"
	"soar/internal/paper"
	"soar/internal/sched"
	"soar/internal/topology"
)

func newTestCluster(t *testing.T) *ha.Cluster {
	t.Helper()
	cl, err := ha.NewCluster(topology.CompleteKAry(3, 4), ha.Options{
		Level:      1,
		Replicas:   1,
		Heartbeat:  25 * time.Millisecond,
		MissBudget: 4,
		Sched:      sched.Config{Capacity: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// podLocalLoad builds a global load vector confined to one shard's pod.
func podLocalLoad(cl *ha.Cluster, shard int) []int {
	p := cl.Partitioning()
	pod := p.Shards[shard].Pod
	load := make([]int, p.Tree.N())
	for _, lv := range pod.Tree.Leaves() {
		load[pod.Global[lv]] = 1
	}
	return load
}

// TestShardedFront drives the shard-aware HTTP front end to end:
// admissions route to the pod their load lives in, leases come back
// with cluster-wide ids, /v1/shards mirrors membership, and draining
// flips readiness while liveness stays green. (Cross-pod loads are a
// row of TestProbeSurfaceOfEveryFront.)
func TestShardedFront(t *testing.T) {
	cl := newTestCluster(t)
	front := NewSharded(cl)
	srv := httptest.NewServer(front.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, nil)
	ctx := context.Background()

	if ok, err := c.Ready(ctx); err != nil || !ok {
		t.Fatalf("Ready = %v, %v; want true", ok, err)
	}

	lease, err := c.Place(ctx, podLocalLoad(cl, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if shard, _ := ha.SplitID(lease.ID); shard != 1 {
		t.Fatalf("lease %d routed to shard %d, want 1", lease.ID, shard)
	}
	got, err := c.Lookup(ctx, lease.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phi != lease.Phi || len(got.Blue) != len(lease.Blue) {
		t.Fatalf("lookup %+v != placed %+v", got, lease)
	}

	shards, err := c.Shards(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != cl.Shards() {
		t.Fatalf("got %d shards, want %d", len(shards), cl.Shards())
	}
	for _, si := range shards {
		want := 0
		if si.Index == 1 {
			want = 1
		}
		if si.Tenants != want {
			t.Fatalf("shard %d tenants = %d, want %d", si.Index, si.Tenants, want)
		}
		if si.PrimaryNode < 0 || si.Epoch == 0 {
			t.Fatalf("shard %d not serving: %+v", si.Index, si)
		}
	}

	if err := c.Release(ctx, lease.ID); err != nil {
		t.Fatal(err)
	}

	// Draining: readiness fails, liveness and the API keep answering.
	front.SetDraining(true)
	if ok, err := c.Ready(ctx); err != nil || ok {
		t.Fatalf("Ready while draining = %v, %v; want false", ok, err)
	}
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", resp.StatusCode)
	}
	if _, err := c.Shards(ctx); err != nil {
		t.Fatalf("shards while draining: %v", err)
	}
}

// scrape fetches one /metrics page and returns both the raw text and
// the parsed families keyed by name.
func scrape(t *testing.T, url string) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	fams, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse %s: %v", url, err)
	}
	sums := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			sums[f.Name] += s.Value
		}
	}
	return buf.String(), sums
}

// TestShardedMetricsSplit proves the two-registry scrape: the default
// page carries the cluster's soar_ha_* families (epoch rejections,
// failovers, heartbeats), ?shard=K the shard's scheduler families —
// and never each other's, so both pages stay well-formed expositions.
// After a crash the cluster page shows the failover and the shard page
// is served by the promoted incarnation.
func TestShardedMetricsSplit(t *testing.T) {
	cl := newTestCluster(t)
	front := NewSharded(cl)
	srv := httptest.NewServer(front.Handler())
	t.Cleanup(srv.Close)

	text, sums := scrape(t, srv.URL+"/metrics")
	for _, fam := range []string{
		"soar_ha_epoch_rejections_total", "soar_ha_failovers_total", "soar_ha_heartbeats_total",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("cluster page missing %s:\n%s", fam, text)
		}
	}
	if strings.Contains(text, "soar_sched_admissions_total") {
		t.Fatal("cluster page leaks per-shard scheduler families")
	}
	if sums["soar_ha_failovers_total"] != 0 {
		t.Fatalf("failovers = %v before any crash", sums["soar_ha_failovers_total"])
	}

	shardText, _ := scrape(t, srv.URL+"/metrics?shard=0")
	for _, fam := range []string{
		"soar_sched_admissions_total", "soar_ckpt_restore_attempts_total", "soar_ckpt_restore_reject_total",
	} {
		if !strings.Contains(shardText, fam) {
			t.Fatalf("shard page missing %s", fam)
		}
	}
	if strings.Contains(shardText, "soar_ha_heartbeats_total") {
		t.Fatal("shard page leaks cluster families")
	}

	// Crash shard 0's primary; the standby promotes and both pages
	// reflect it: a counted failover, and a shard registry that is the
	// new incarnation's (fresh counters, same families).
	pre := cl.Status()[0]
	if cl.CrashPrimary(0) == nil {
		t.Fatal("no primary to crash")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := cl.Status()[0]
		if st.Epoch > pre.Epoch && st.PrimaryNode >= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 did not fail over (epoch %d)", st.Epoch)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, sums = scrape(t, srv.URL+"/metrics")
	if sums["soar_ha_failovers_total"] < 1 {
		t.Fatalf("failovers = %v after crash, want >= 1", sums["soar_ha_failovers_total"])
	}
	shardText, _ = scrape(t, srv.URL+"/metrics?shard=0") // the promoted incarnation serves it
	if !strings.Contains(shardText, "soar_sched_admissions_total") {
		t.Fatal("post-failover shard page missing scheduler families")
	}
}

// TestRestoreCountersOverMetrics drives the checkpoint-restore
// rejection counters through the HTTP scrape an operator actually
// watches: a flipped byte lands in reason="checksum", a checkpoint
// from a different fabric in reason="topology", and every try counts
// an attempt.
func TestRestoreCountersOverMetrics(t *testing.T) {
	tr, loads := paper.Figure2()
	src := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(src.Close)
	if _, err := src.Place(loads, 2); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := src.Checkpoint(&good); err != nil {
		t.Fatal(err)
	}

	dst, srv := serveScheduler(t, tr, 2)

	// Flip a bit of the footer's FNV sum (the stream's last byte): the
	// footer still decodes, so the rejection is the checksum mismatch
	// itself, not a frame error.
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[len(flipped)-1] ^= 0x40
	if err := dst.Restore(bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupt checkpoint restored")
	}
	other := sched.New(topology.MustBT(32), sched.Config{Capacity: 2})
	t.Cleanup(other.Close)
	var wrongTopo bytes.Buffer
	if err := other.Checkpoint(&wrongTopo); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(bytes.NewReader(wrongTopo.Bytes())); err == nil {
		t.Fatal("wrong-fabric checkpoint restored")
	}

	text, sums := scrape(t, srv.URL+"/metrics")
	if got := sums["soar_ckpt_restore_attempts_total"]; got != 2 {
		t.Fatalf("restore attempts = %v, want 2", got)
	}
	for _, want := range []string{
		`soar_ckpt_restore_reject_total{reason="checksum"} 1`,
		`soar_ckpt_restore_reject_total{reason="topology"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}

// TestServiceProbes covers the single-node front's health surface:
// liveness always answers, readiness tracks restored-and-not-draining.
func TestServiceProbes(t *testing.T) {
	tr, _ := paper.Figure2()
	sch := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(sch.Close)
	s := FromScheduler(sch)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, nil)
	ctx := context.Background()

	probe := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := probe("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if ok, err := c.Ready(ctx); err != nil || !ok {
		t.Fatalf("Ready = %v, %v; want true", ok, err)
	}

	s.SetReady(false) // the daemon's state while a restore is in flight
	if got := probe("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz unrestored = %d, want 503", got)
	}
	s.SetReady(true)
	s.SetDraining(true)
	if got := probe("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining = %d, want 503", got)
	}
	if got := probe("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz draining = %d, want 200", got)
	}
	s.SetDraining(false)
	if ok, _ := c.Ready(ctx); !ok {
		t.Fatal("readiness did not recover after drain cleared")
	}
}
