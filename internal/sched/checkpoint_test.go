package sched

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"soar/internal/load"
	"soar/internal/topology"
)

// placeSome admits count random sparse tenants and returns their leases.
func placeSome(t *testing.T, s *Scheduler, tr *topology.Tree, count int, seed int64) []*Lease {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	leases := make([]*Lease, 0, count)
	for i := 0; i < count; i++ {
		loads := load.GenerateSparse(tr, load.PaperPowerLaw(), 4, rng)
		l, err := s.Place(loads, 1+rng.Intn(4))
		if err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
		leases = append(leases, l)
	}
	return leases
}

func TestCheckpointRestoreRecoversLeaseForLease(t *testing.T) {
	// The crash-restart acceptance test: place tenants, checkpoint,
	// destroy the scheduler, restore into a fresh one — every lease must
	// come back identical, residuals conserved, and new admissions must
	// not collide with recovered ids.
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 3})
	leases := placeSome(t, s, tr, 20, 1)
	for _, id := range []int{3, 7, 11} { // leave some churn scars
		if err := s.Release(leases[id].ID); err != nil {
			t.Fatal(err)
		}
	}
	live := append(append([]*Lease(nil), leases[:3]...), leases[4:7]...)
	live = append(live, leases[8:11]...)
	live = append(live, leases[12:]...)

	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wantResidual := s.Residual()
	s.Close() // the "crash"

	fresh := New(tr, Config{Capacity: 3})
	defer fresh.Close()
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := fresh.Audit(); err != nil {
		t.Fatalf("audit after restore: %v", err)
	}
	if got := fresh.Residual(); !reflect.DeepEqual(got, wantResidual) {
		t.Fatalf("restored residuals %v, want %v", got, wantResidual)
	}
	for _, want := range live {
		got, err := fresh.Lookup(want.ID)
		if err != nil {
			t.Fatalf("lease %d lost in restore: %v", want.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lease %d differs after restore:\n  got  %+v\n  want %+v", want.ID, got, want)
		}
	}
	if _, err := fresh.Lookup(leases[3].ID); err == nil {
		t.Fatal("released lease resurrected by restore")
	}

	// Recovered scheduler keeps serving: releases of recovered leases
	// work, and fresh ids never collide with recovered ones.
	if err := fresh.Release(live[0].ID); err != nil {
		t.Fatalf("release recovered lease: %v", err)
	}
	loads := make([]int, tr.N())
	loads[tr.Leaves()[0]] = 5
	nl, err := fresh.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range leases {
		if nl.ID == old.ID {
			t.Fatalf("fresh lease reissued id %d", nl.ID)
		}
	}
	if err := fresh.Audit(); err != nil {
		t.Fatalf("audit after post-restore traffic: %v", err)
	}
}

func TestCheckpointRestoreEmptyScheduler(t *testing.T) {
	tr := topology.MustBT(16)
	s := New(tr, Config{Capacity: 2})
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	fresh := New(tr, Config{Capacity: 2})
	defer fresh.Close()
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Audit(); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Snapshot(); st.Tenants != 0 {
		t.Fatalf("empty checkpoint restored %d tenants", st.Tenants)
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	tr := topology.MustBT(32)
	s := New(tr, Config{Capacity: 2})
	placeSome(t, s, tr, 8, 2)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	good := buf.Bytes()

	cases := map[string][]byte{
		"truncated":    good[:len(good)-10],
		"bit flip":     flipByte(good, len(good)/2),
		"empty stream": {},
	}
	for name, data := range cases {
		fresh := New(tr, Config{Capacity: 2})
		if err := fresh.Restore(bytes.NewReader(data)); err == nil {
			t.Errorf("%s checkpoint restored without error", name)
		} else if err := fresh.Audit(); err != nil {
			t.Errorf("%s: failed restore left state behind: %v", name, err)
		}
		if st := fresh.Snapshot(); st.Tenants != 0 {
			t.Errorf("%s: failed restore installed %d tenants", name, st.Tenants)
		}
		fresh.Close()
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

func TestRestoreRejectsWrongTopology(t *testing.T) {
	tr := topology.MustBT(32)
	s := New(tr, Config{Capacity: 2})
	placeSome(t, s, tr, 4, 3)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Same switch count, different shape: the fingerprint must catch
	// what the size check cannot.
	other := topology.ScaleFree(tr.N(), rand.New(rand.NewSource(9)))
	fresh := New(other, Config{Capacity: 2})
	defer fresh.Close()
	err := fresh.Restore(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("restore against a different topology: %v, want fingerprint error", err)
	}
}

func TestRestoreRejectsBusyScheduler(t *testing.T) {
	tr := topology.MustBT(16)
	s := New(tr, Config{Capacity: 2})
	placeSome(t, s, tr, 2, 4)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Restoring into a scheduler that already has leases must refuse.
	if err := s.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into a live scheduler succeeded")
	}
	s.Close()
}

func TestCheckpointIsConcurrencySafe(t *testing.T) {
	// Checkpoints taken while tenants churn must each be internally
	// consistent (restorable with a clean audit), whatever instant the
	// snapshot catches.
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 2, Workers: 4})
	defer s.Close()
	stop := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(5))
		var ids []int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			loads := load.GenerateSparse(tr, load.PaperPowerLaw(), 3, rng)
			if l, err := s.Place(loads, 2); err == nil {
				ids = append(ids, l.ID)
			}
			if len(ids) > 30 {
				s.Release(ids[0])
				ids = ids[1:]
			}
		}
	}()
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		fresh := New(tr, Config{Capacity: 2})
		if err := fresh.Restore(&buf); err != nil {
			t.Fatalf("restore of live checkpoint %d: %v", i, err)
		}
		if err := fresh.Audit(); err != nil {
			t.Fatalf("audit of live checkpoint %d: %v", i, err)
		}
		fresh.Close()
	}
	close(stop)
}

// TestCheckpointDuringRepackRestores is the regression test for the
// checkpoint-vs-re-packer defect: a round credits a candidate's slots
// and re-solves it with the commit lock released, so a snapshot taken
// under the lock alone could land in between and fail Restore's
// conservation check (270 of 300 did, with a 1 ms re-packer). Snapshots
// now run on the dispatcher, between rounds; every one must restore.
func TestCheckpointDuringRepackRestores(t *testing.T) {
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 2, Workers: 2, Repack: RepackConfig{Every: time.Millisecond}})
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		rng := rand.New(rand.NewSource(5))
		var ids []int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			loads := load.GenerateSparse(tr, load.PaperPowerLaw(), 3, rng)
			if l, err := s.Place(loads, 2); err == nil {
				ids = append(ids, l.ID)
			}
			if len(ids) > 30 {
				s.Release(ids[0])
				ids = ids[1:]
			}
		}
	}()
	check := func(i int) {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		fresh := New(tr, Config{Capacity: 2})
		defer fresh.Close()
		if err := fresh.Restore(&buf); err != nil {
			t.Fatalf("restore of checkpoint %d: %v", i, err)
		}
		if err := fresh.Audit(); err != nil {
			t.Fatalf("audit of checkpoint %d: %v", i, err)
		}
	}
	for i := 0; i < 300; i++ {
		check(i)
	}
	if s.met.repackRounds.Value() == 0 {
		t.Fatal("no re-packing round ran: the test raced nothing")
	}
	close(stop)
	<-churned
	// A closed scheduler has no dispatcher to ask; the snapshot is then
	// taken directly (nothing can be mid-round any more).
	s.Close()
	check(300)
}

func TestAuditDetectsCorruption(t *testing.T) {
	tr := topology.MustBT(16)
	s := New(tr, Config{Capacity: 2})
	defer s.Close()
	leases := placeSome(t, s, tr, 3, 6)
	if err := s.Audit(); err != nil {
		t.Fatalf("clean scheduler fails audit: %v", err)
	}
	// Sabotage the ledger directly: the audit must notice the residual
	// no longer matches the lease set.
	if len(leases[0].Blue) == 0 {
		t.Fatal("test lease holds no switches")
	}
	s.mu.Lock()
	s.tab.ledger.residual[leases[0].Blue[0]]++
	s.mu.Unlock()
	if err := s.Audit(); err == nil {
		t.Fatal("audit blessed a cooked ledger")
	}
	s.mu.Lock()
	s.tab.ledger.residual[leases[0].Blue[0]]-- // restore sanity for Close
	s.mu.Unlock()
}
