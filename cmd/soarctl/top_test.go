package main

import (
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"soar/internal/naas"
	"soar/internal/paper"
	"soar/internal/sched"
)

// TestTopLoopAgainstLiveService boots a real naas control plane,
// admits a tenant, takes a checkpoint, and runs two polling rounds of
// the top view: the scrape must parse, the quantiles must compute, and
// the rendered table must reflect the admission and the checkpoint.
func TestTopLoopAgainstLiveService(t *testing.T) {
	tr, loads := paper.Figure2()
	sch := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(sch.Close)
	srv := httptest.NewServer(naas.FromScheduler(sch).Handler())
	t.Cleanup(srv.Close)
	if _, err := sch.Place(loads, 2); err != nil {
		t.Fatal(err)
	}
	if err := sch.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := topLoop(&sb, srv.URL, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "adm/s") || !strings.Contains(out, "qwait50 cksnap50") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 poll lines, got %d:\n%s", len(lines), out)
	}
	// One tenant is active; the tenants column must say so on each line,
	// its admission gave the queue-wait column (6th) a reading, the
	// checkpoint gave the lock-hold column (7th) one, and its solve built
	// the engine, so the last column (recomp) counts every switch.
	for _, ln := range lines[1:] {
		f := strings.Fields(ln)
		if len(f) < 7 || f[5] == "-" || f[6] == "-" {
			t.Fatalf("poll line shows no queue wait or no checkpoint pause: %q", ln)
		}
		if f[len(f)-1] != strconv.Itoa(tr.N()) {
			t.Fatalf("poll line's recomp column is not the %d switches the solve computed: %q", tr.N(), ln)
		}
		if !strings.Contains(ln, " 1 ") {
			t.Fatalf("poll line does not show the active tenant: %q", ln)
		}
	}
}

// TestTopOnceFlag pins the -once shorthand against a live service.
func TestTopOnceFlag(t *testing.T) {
	tr, _ := paper.Figure2()
	sch := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(sch.Close)
	srv := httptest.NewServer(naas.FromScheduler(sch).Handler())
	t.Cleanup(srv.Close)
	if err := runTop([]string{"-addr", srv.URL, "-once"}); err != nil {
		t.Fatal(err)
	}
}
