package cluster

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"soar/internal/obs"
	"soar/internal/topology"
)

// TestMetricsRecordedOnRun drives one healthy distributed run and one
// dial-blackholed RunOrFallback through a shared Metrics and checks
// every family moved the way the run did: frames flowed both ways,
// the healthy run counted once with no errors, the blackholed one
// degraded, and the whole state survives a scrape/parse round trip.
func TestMetricsRecordedOnRun(t *testing.T) {
	tr, err := topology.BT(8)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int, tr.N())
	for v := 0; v < tr.N(); v++ {
		if tr.IsLeaf(v) {
			load[v] = 1
		}
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg, obs.NewTrace(256))

	ctx := context.Background()
	res, err := RunWithOptions(ctx, tr, load, nil, 2, &Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("healthy run reported Degraded")
	}
	if got := m.runs.Value(); got != 1 {
		t.Fatalf("runs counter = %d, want 1", got)
	}
	if got := m.runErrors.Value(); got != 0 {
		t.Fatalf("run errors = %d, want 0", got)
	}
	// Every protocol frame sent is received by a peer edge that shares
	// the same Metrics, so the directions must balance.
	sent, recvd := m.framesSent.Value(), m.framesRecv.Value()
	if sent == 0 || sent != recvd {
		t.Fatalf("frames sent=%d recv=%d, want equal and nonzero", sent, recvd)
	}
	if got := m.runSeconds.Count(); got != 1 {
		t.Fatalf("run duration observations = %d, want 1", got)
	}

	// A dialer that never connects: RunOrFallback must degrade and say so.
	dead := &Options{
		Metrics: m,
		Dial: func(ctx context.Context, node int, addr string) (net.Conn, error) {
			return nil, errors.New("blackhole")
		},
		Retry: RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}
	res2, err := RunOrFallback(ctx, tr, load, nil, 2, dead)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Degraded || res2.Attempts != 2 || res2.Cause == nil {
		t.Fatalf("degraded run reported %+v", res2)
	}
	if res2.Cost != res.Cost {
		t.Fatalf("fallback cost %v differs from distributed cost %v", res2.Cost, res.Cost)
	}
	if got := m.degraded.Value(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
	if got := m.attempts.Value(); got != 2 {
		t.Fatalf("attempts counter = %d, want 2", got)
	}
	if got := m.dialRetries.Value(); got == 0 {
		t.Fatal("blackholed dials recorded no retries")
	}
	if got := m.runErrors.Value(); got != 2 {
		t.Fatalf("run errors = %d, want 2 (one per blackholed attempt)", got)
	}

	// The scrape must round-trip and carry both frame directions.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, sb.String())
	}
	byName := map[string]obs.TextFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	frames, ok := byName["soar_cluster_frames_total"]
	if !ok || len(frames.Samples) != 2 {
		t.Fatalf("frames family missing or mislabeled in scrape:\n%s", sb.String())
	}
	if _, ok := byName["soar_cluster_run_seconds"]; !ok {
		t.Fatalf("run_seconds family missing from scrape:\n%s", sb.String())
	}

	// The trace ring saw the per-stage spans.
	ops := map[string]bool{}
	for _, ev := range m.Trace().Dump(256) {
		ops[ev.Op] = true
	}
	for _, want := range []string{"cluster.run", "cluster.dial", "cluster.send", "cluster.recv"} {
		if !ops[want] {
			t.Fatalf("trace ring has no %s span (saw %v)", want, ops)
		}
	}
}

// TestNilMetricsRecordsNothing pins the opt-in contract: every note
// method and accessor on a nil *Metrics is a no-op, so un-instrumented
// callers need no guards.
func TestNilMetricsRecordsNothing(t *testing.T) {
	var m *Metrics
	m.noteRun(time.Now(), 3, nil)
	m.noteFrame(true, time.Now(), nil)
	m.noteFrame(false, time.Now(), errors.New("x"))
	m.noteDial(time.Now(), 2, nil)
	m.noteAttempts(1)
	m.noteDegraded()
	if m.Trace() != nil {
		t.Fatal("a nil Metrics must have no trace ring")
	}
}
