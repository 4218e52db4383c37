package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"soar/internal/paper"
	"soar/internal/sched"
)

// TestDebugMuxServesPprof pins the -debug-addr surface: the explicit
// mux must serve the pprof index and subhandlers, and nothing else.
func TestDebugMuxServesPprof(t *testing.T) {
	srv := httptest.NewServer(debugMux())
	t.Cleanup(srv.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("debug listener must not serve the control plane")
	}
}

func TestSaveAndRestoreCheckpointFile(t *testing.T) {
	tr, loads := paper.Figure2()
	svc := sched.New(tr, sched.Config{Capacity: 2})
	lease, err := svc.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "naas.ckpt")
	size, err := saveCheckpoint(svc, path)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != size {
		t.Fatalf("checkpoint file: %v (size %d, reported %d)", err, st.Size(), size)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	svc.Close()

	fresh := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(fresh.Close)
	if err := restoreCheckpoint(fresh, path); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := fresh.Lookup(lease.ID); err != nil {
		t.Fatalf("lease lost across the daemon restart path: %v", err)
	}
}

// TestSaveCheckpointBoundedHungDisk is the satellite regression test:
// a sink wedged on a hung disk must not wedge the caller. The bounded
// save returns the deadline error, concurrent saves surface as
// errCkptBusy rather than queueing goroutines behind the dead disk,
// and once the disk recovers the saver works again.
func TestSaveCheckpointBoundedHungDisk(t *testing.T) {
	tr, loads := paper.Figure2()
	svc := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(svc.Close)
	if _, err := svc.Place(loads, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "naas.ckpt")

	release := make(chan struct{})
	hung := func(path string, data []byte) (int64, error) {
		<-release
		return writeCkptFile(path, data)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := saveCheckpointBounded(ctx, svc, path, hung); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung sink: err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded save blocked %v on a hung disk", elapsed)
	}

	// The abandoned write still owns the temp file: a second save must
	// fail fast with busy, not stack up behind it.
	if _, err := saveCheckpointBounded(context.Background(), svc, path, writeCkptFile); !errors.Is(err, errCkptBusy) {
		t.Fatalf("save during hung save: err = %v, want errCkptBusy", err)
	}

	// Disk recovers: the abandoned write completes in the background and
	// the saver is usable again.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := saveCheckpoint(svc, path); err == nil {
			break
		} else if !errors.Is(err, errCkptBusy) {
			t.Fatalf("save after recovery: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("saver never recovered after the disk unwedged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint landed after recovery: %v", err)
	}
}

func TestRestoreMissingFileIsFreshStart(t *testing.T) {
	tr, _ := paper.Figure2()
	svc := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(svc.Close)
	if err := restoreCheckpoint(svc, filepath.Join(t.TempDir(), "absent.ckpt")); err != nil {
		t.Fatalf("missing checkpoint treated as error: %v", err)
	}
}

// TestBuildTreeRejectsBadFlags pins that every bad topology flag value
// comes back as an error for main's one-line exit — none reaches a
// builder's panic (`-topo sf -n 0` used to die with a goroutine trace
// out of topology.ScaleFree).
func TestBuildTreeRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		topoFile, topo string
		n              int
	}{
		{"", "sf", 0},
		{"", "sf", -5},
		{"", "bt", 0},
		{"", "bt", 100},
		{"", "mesh", 64},
		{filepath.Join(t.TempDir(), "absent.json"), "bt", 64},
	} {
		if tr, err := buildTree(c.topoFile, c.topo, c.n, 1); err == nil {
			t.Fatalf("buildTree(%q, %q, %d) built %d switches, want an error", c.topoFile, c.topo, c.n, tr.N())
		}
	}
	for _, topo := range []string{"bt", "sf"} {
		if _, err := buildTree("", topo, 64, 1); err != nil {
			t.Fatalf("buildTree(%q, 64): %v", topo, err)
		}
	}
}
