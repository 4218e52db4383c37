package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"soar/internal/load"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// fragment fills a capacity-1 tree with identical tenants (later ones
// are pushed onto ever-worse switches), then releases the early, well-
// placed half — the classic departure-fragmentation state the re-packer
// exists for. Returns the surviving tenant ids.
func fragment(t *testing.T, s *Scheduler, tr *topology.Tree, loads []int, tenants int) []int64 {
	t.Helper()
	ids := make([]int64, 0, tenants)
	for i := 0; i < tenants; i++ {
		lease, err := s.Place(loads, 2)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, lease.ID)
	}
	for _, id := range ids[:tenants/2] {
		if err := s.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	return ids[tenants/2:]
}

func TestRepackRecoversPhi(t *testing.T) {
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(3))
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
	s := New(tr, Config{Capacity: 1, Workers: 2})
	defer s.Close()

	live := fragment(t, s, tr, loads, 8)
	var before float64
	for _, id := range live {
		lease, err := s.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		before += lease.Phi
	}

	moved, recovered, err := s.RepackNow(len(live))
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 || recovered <= 0 {
		t.Fatalf("re-pack moved %d tenants, recovered %v; fragmentation should be repairable", moved, recovered)
	}

	// Aggregate Φ dropped by exactly the reported amount, and every
	// lease's recorded φ still matches a from-scratch simulation of its
	// (possibly migrated) placement.
	var after float64
	used := make([]int, tr.N())
	for _, id := range live {
		lease, err := s.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		after += lease.Phi
		blue := make([]bool, tr.N())
		for _, v := range lease.Blue {
			used[v]++
			blue[v] = true
		}
		if phi := reduce.Utilization(tr, lease.Load, blue); phi != lease.Phi {
			t.Fatalf("lease %d: recorded φ=%v but placement costs %v", id, lease.Phi, phi)
		}
	}
	if diff := before - after; diff != recovered {
		t.Fatalf("aggregate Φ dropped by %v, re-packer reported %v", diff, recovered)
	}
	// Ledger conservation after migrations.
	for v, res := range s.Residual() {
		if res != 1-used[v] {
			t.Fatalf("switch %d: residual %d with %d slots held", v, res, used[v])
		}
	}
	if rounds, moves, phi := s.met.repackRounds.Value(), s.met.repackMoves.Value(), s.met.phiRecovered.Value(); rounds != 1 || moves != uint64(moved) || phi != recovered {
		t.Fatalf("repack metrics: %d rounds, %d moves, Φ recovered %v", rounds, moves, phi)
	}
}

func TestRepackHonorsMigrationBudget(t *testing.T) {
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(4))
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
	s := New(tr, Config{Capacity: 1, Workers: 2})
	defer s.Close()
	fragment(t, s, tr, loads, 8)

	moved, _, err := s.RepackNow(1)
	if err != nil {
		t.Fatal(err)
	}
	if moved > 1 {
		t.Fatalf("budget 1 round moved %d tenants", moved)
	}
}

func TestRepackNoopWhenOptimal(t *testing.T) {
	// Fresh tenants with ample capacity are already optimally placed: a
	// round must move nothing and recover zero.
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(5))
	s := New(tr, Config{Capacity: 8, Workers: 2})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Place(load.GenerateSparse(tr, load.PaperUniform(), 6, rng), 4); err != nil {
			t.Fatal(err)
		}
	}
	moved, recovered, err := s.RepackNow(8)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || recovered != 0 {
		t.Fatalf("optimal state re-packed: moved %d recovered %v", moved, recovered)
	}
}

func TestRepackBackgroundLoop(t *testing.T) {
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(6))
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
	s := New(tr, Config{
		Capacity: 1,
		Workers:  2,
		Repack:   RepackConfig{Every: 2 * time.Millisecond, MaxMoves: 4},
	})
	defer s.Close()
	live := fragment(t, s, tr, loads, 8)

	deadline := time.Now().Add(2 * time.Second)
	for {
		rounds, phi := s.met.repackRounds.Value(), s.met.phiRecovered.Value()
		if rounds > 0 && phi > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background re-packer never recovered Φ: %d rounds, Φ recovered %v", rounds, phi)
		}
		time.Sleep(time.Millisecond)
	}
	// The service keeps serving during and after background rounds.
	lease, err := s.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range live {
		if _, err := s.Lookup(id); err != nil {
			t.Fatalf("tenant %d lost by re-packer: %v", id, err)
		}
	}
}

func TestRepackDeterministicGivenState(t *testing.T) {
	// Two schedulers brought to the same state re-pack identically —
	// rounds are ordered by (ratio, id), not map iteration order.
	run := func() (int, float64, [][]int) {
		tr := topology.MustBT(64)
		rng := rand.New(rand.NewSource(7))
		loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
		s := New(tr, Config{Capacity: 1, Workers: 2})
		defer s.Close()
		live := fragment(t, s, tr, loads, 8)
		moved, recovered, err := s.RepackNow(2)
		if err != nil {
			t.Fatal(err)
		}
		blues := make([][]int, 0, len(live))
		for _, id := range live {
			lease, err := s.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			blues = append(blues, lease.Blue)
		}
		return moved, recovered, blues
	}
	m1, r1, b1 := run()
	m2, r2, b2 := run()
	if m1 != m2 || r1 != r2 || !reflect.DeepEqual(b1, b2) {
		t.Fatalf("re-packing diverged: (%d, %v) vs (%d, %v)", m1, r1, m2, r2)
	}
}
