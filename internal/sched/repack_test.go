package sched

import (
	"math/rand"
	"os"
	"reflect"
	"runtime/debug"
	"sort"
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
	return fragmentWith(t, s, func() []int { return loads }, 2, tenants)
}

// fragmentWith is fragment over tenants drawn from next, each asking
// for k switches.
func fragmentWith(t *testing.T, s *Scheduler, next func() []int, k, tenants int) []int64 {
	t.Helper()
	ids := make([]int64, 0, tenants)
	for i := 0; i < tenants; i++ {
		lease, err := s.Place(next(), k)
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

// TestRepackStandingPhi prices the re-packer on the shapes of the
// end-to-end ledger (bench/workload.go) and on the daemon's default
// capacity: per shape and seed it fills the tree to twice the standing
// tenant count, releases the early half (fragmentWith), churns another
// three standing counts of release-one-admit-one, then runs RepackNow
// rounds until one moves nothing. The standing mean ratio φ/φ_allred,
// taken over the live leases in id order, must never rise; the log
// reports what the rounds recovered and what a round cost.
//
// The ledger's fabric is BT(2048). That run takes about a minute, so
// it is gated on SOAR_SOAK_ROUNDS; without it every shape runs on
// BT(256) at a 32nd of its standing count. Under the race detector,
// whose CI job sets SOAR_SOAK_ROUNDS too, it stays on BT(256): the
// large tree takes over six minutes there and races no code the small
// one does not.
func TestRepackStandingPhi(t *testing.T) {
	n, scale := 256, 32
	if os.Getenv("SOAR_SOAK_ROUNDS") != "" && !raceEnabled() {
		n, scale = 2048, 1
	}
	shapes := []struct {
		name     string
		capacity int
		pod      bool // one shard of a level-3 partition: spine switches hold no slots
		dense    bool // every rack loaded, else `racks` racks per tenant
		racks, k int
		standing int
	}{
		{"sparse_churn", 16, false, false, 8, 8, 1000},
		{"dense_bigk", 128, false, true, 0, 32, 50},
		{"sharded_ha", 16, true, false, 8, 8, 1000 / 8}, // the ledger's 1000 over 8 pods
		{"ckpt_recovery", 64, false, false, 8, 8, 5000},
		{"default_cap4", 4, false, false, 8, 8, 1000},
	}
	tree := topology.MustBT(n)
	for _, sh := range shapes {
		tr, cfg := tree, Config{Capacity: sh.capacity, Workers: 2}
		if sh.pod {
			pod, err := tree.PodTree(tree.NodesAtLevel(3)[0])
			if err != nil {
				t.Fatal(err)
			}
			tr, cfg.Capacities = pod.Tree, make([]int, pod.Tree.N())
			for v := pod.Spine; v < pod.Tree.N(); v++ {
				cfg.Capacities[v] = sh.capacity
			}
		}
		standing := max(sh.standing/scale, 4)
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			next := func() []int {
				if sh.dense {
					return load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
				}
				return load.GenerateSparse(tr, load.PaperPowerLaw(), sh.racks, rng)
			}
			s := New(tr, cfg)
			live := fragmentWith(t, s, next, sh.k, 2*standing)
			for i := 0; i < 3*standing; i++ {
				j := rng.Intn(len(live))
				if err := s.Release(live[j]); err != nil {
					t.Fatal(err)
				}
				lease, err := s.Place(next(), sh.k)
				if err != nil {
					t.Fatal(err)
				}
				live[j] = lease.ID
			}
			sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
			meanRatio := func() float64 {
				sum := 0.0
				for _, id := range live {
					lease, err := s.Lookup(id)
					if err != nil {
						t.Fatal(err)
					}
					sum += lease.Ratio()
				}
				return sum / float64(len(live))
			}

			before := meanRatio()
			ratio, rounds, moves := before, 0, 0
			var spent time.Duration
			for {
				t0 := time.Now()
				moved, _, err := s.RepackNow(0)
				spent += time.Since(t0)
				if err != nil {
					t.Fatal(err)
				}
				rounds++
				moves += moved
				now := meanRatio()
				if now > ratio {
					t.Fatalf("%s seed %d: round %d raised the standing mean ratio %v → %v", sh.name, seed, rounds, ratio, now)
				}
				ratio = now
				if moved == 0 {
					break
				}
			}
			s.Close()
			t.Logf("%-13s BT(%d) cap %3d standing %4d seed %d: mean ratio %.5f → %.5f (%.3f %%), %d moves in %d rounds, %.2f ms a round",
				sh.name, n, sh.capacity, standing, seed, before, ratio, 100*(before-ratio)/before,
				moves, rounds, float64(spent.Microseconds())/1e3/float64(rounds))
		}
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector, which slows every solve by an order of magnitude.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "-race" {
				return st.Value == "true"
			}
		}
	}
	return false
}
