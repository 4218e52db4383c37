package ha

import (
	"bytes"
	"testing"
	"time"

	"soar/internal/sched"
	"soar/internal/topology"
)

// TestMirrorJoinAndPromote drives the -join path: an out-of-process
// replica attaches to a shard primary's replication listener, syncs
// the checkpoint, tracks per-commit deltas, and promotes into a
// scheduler holding lease-for-lease the primary's state.
func TestMirrorJoinAndPromote(t *testing.T) {
	tr := topology.CompleteKAry(3, 4)
	cl, err := NewCluster(tr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.Partitioning()

	// Seed the shard with state before the mirror exists: it must
	// arrive via the checkpoint stream, not deltas.
	pre, err := cl.Place(podLoad(p, 0), 2)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewMirror(tr, 1, cl.Status()[0].PrimaryAddr, MirrorConfig{
		Shard:      0,
		Node:       999,
		Heartbeat:  25 * time.Millisecond,
		MissBudget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitFor(t, 3*time.Second, "mirror sync", func() bool {
		st := m.Status()
		return st.Synced && st.Seq >= cl.Status()[0].Seq
	})

	// And state placed after the attach must arrive as deltas.
	post, err := cl.Place(podLoad(p, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "mirror delta catch-up", func() bool {
		return m.Status().Seq >= cl.Status()[0].Seq
	})
	if st, _ := m.st.state(); st.applied == 0 {
		t.Fatal("post-attach commit did not travel as a delta")
	}

	// The mirror's gauges render alongside the soar_ha_* counters.
	var text bytes.Buffer
	if err := m.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"soar_ha_mirror_seq", "soar_ha_mirror_epoch", "soar_ha_deltas_total"} {
		if !bytes.Contains(text.Bytes(), []byte(fam)) {
			t.Fatalf("mirror registry missing %s", fam)
		}
	}

	sch, err := m.Promote(sched.Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sch.Close()
	for _, gid := range []int64{pre.ID, post.ID} {
		_, local := SplitID(gid)
		want, err := cl.Lookup(gid)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sch.Lookup(local)
		if err != nil {
			t.Fatalf("promoted scheduler lost lease %d: %v", local, err)
		}
		if got.Phi != want.Phi || got.K != want.K || len(got.Blue) != len(want.Blue) {
			t.Fatalf("promoted lease %d = %+v, want %+v", local, got, want)
		}
	}
	if err := sch.Audit(); err != nil {
		t.Fatal(err)
	}

	// A mirror that never synced refuses to promote.
	empty, err := NewMirror(tr, 1, "127.0.0.1:1", MirrorConfig{Shard: 1, Node: 998,
		Heartbeat: 10 * time.Millisecond, MissBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if _, err := empty.Promote(sched.Config{Capacity: 2}); err == nil {
		t.Fatal("unsynced mirror promoted")
	}
}
