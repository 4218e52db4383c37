package naas

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"soar/internal/paper"
	"soar/internal/sched"
)

// TestServiceCheckpointRestore walks the daemon's restart path: a
// checkpoint taken behind a live front, restored into a fresh scheduler
// before it is fronted, serves the same lease.
func TestServiceCheckpointRestore(t *testing.T) {
	tr, loads := paper.Figure2()
	s := sched.New(tr, sched.Config{Capacity: 2})
	ts := httptest.NewServer(FromScheduler(s).Handler())
	lease, err := NewClient(ts.URL, nil).Place(context.Background(), loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	s.Close()

	fresh := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(fresh.Close)
	if err := fresh.Restore(&buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	ts = httptest.NewServer(FromScheduler(fresh).Handler())
	t.Cleanup(ts.Close)
	got, err := NewClient(ts.URL, nil).Lookup(context.Background(), lease.ID)
	if err != nil {
		t.Fatalf("lease lost across restart: %v", err)
	}
	if got.Phi != lease.Phi || len(got.Blue) != len(lease.Blue) {
		t.Fatalf("restored lease %+v, placed %+v", got, lease)
	}
}

func TestHTTPCheckpointStreamIsRestorable(t *testing.T) {
	tr, loads := paper.Figure2()
	sch, ts := serveScheduler(t, tr, 2)
	lease, err := sch.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	c := NewClient(ts.URL, nil)
	size, err := c.Checkpoint(context.Background(), &buf)
	if err != nil {
		t.Fatalf("GET /v1/checkpoint: %v", err)
	}
	if size != int64(buf.Len()) || size == 0 {
		t.Fatalf("checkpoint size %d, buffered %d", size, buf.Len())
	}

	fresh := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(fresh.Close)
	if err := fresh.Restore(&buf); err != nil {
		t.Fatalf("restore of HTTP checkpoint: %v", err)
	}
	if _, err := fresh.Lookup(lease.ID); err != nil {
		t.Fatalf("lease lost through the HTTP checkpoint: %v", err)
	}
}

// TestHTTPCheckpointSave drives POST /v1/checkpoint through a registered
// saver; without one it is a 503 (a case of the route-surface table).
func TestHTTPCheckpointSave(t *testing.T) {
	tr, _ := paper.Figure2()
	sch := sched.New(tr, sched.Config{Capacity: 2})
	t.Cleanup(sch.Close)
	front := FromScheduler(sch)
	saved := 0
	front.SetCheckpointSaver(func() (string, int64, error) {
		saved++
		if saved > 1 {
			return "", 0, errors.New("disk full")
		}
		return "/tmp/ckpt", 123, nil
	})
	ts := httptest.NewServer(front.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	path, size, err := c.SaveCheckpoint(context.Background())
	if err != nil {
		t.Fatalf("POST /v1/checkpoint: %v", err)
	}
	if path != "/tmp/ckpt" || size != 123 {
		t.Fatalf("save reported %q/%d", path, size)
	}
	if _, _, err := c.SaveCheckpoint(context.Background()); err == nil {
		t.Fatal("failing saver reported success")
	}
}
