package sched

import (
	"math/rand"
	"sync"
	"testing"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// TestSolveBatchedMatchesSolve drives the batch solve phase directly
// (dispatcher quiescent after Close, exactly the ownership window
// solveBatched runs in) and pins its bitwise-identity contract: every
// placement equals a from-scratch core.Solve against the same
// availability snapshot, across mixed budgets in one batch.
func TestSolveBatchedMatchesSolve(t *testing.T) {
	tr := topology.MustBT(128)
	s := New(tr, Config{Capacity: 2, Workers: 1, BatchSolve: true})
	s.Close() // quiesce the dispatcher; state remains usable in-process
	if s.bsol == nil {
		t.Fatal("BatchSolve config did not build a batch solver")
	}

	rng := rand.New(rand.NewSource(5))
	var reqs []*request
	for i := 0; i < 12; i++ {
		r := &request{op: opPlace, k: []int{4, 4, 6, 8}[i%4]}
		r.load = load.GenerateSparse(tr, load.PaperUniform(), 3, rng)
		reqs = append(reqs, r)
	}
	s.places = append(s.places[:0], reqs...)
	s.solveBatched()

	avail := s.ledger.Avail()
	for i, r := range reqs {
		want := core.Solve(tr, r.load, avail, r.k)
		if r.phi != want.Cost {
			t.Fatalf("request %d: phi %v, want %v", i, r.phi, want.Cost)
		}
		for v := range want.Blue {
			if r.blue[v] != want.Blue[v] {
				t.Fatalf("request %d: blue[%d] = %v, want %v", i, v, r.blue[v], want.Blue[v])
			}
		}
		if r.allRed != reduce.Utilization(tr, r.load, make([]bool, tr.N())) {
			t.Fatalf("request %d: allRed %v mismatch", i, r.allRed)
		}
	}

	// Second batch on the same (now warm) solver: same contract.
	s.solveBatched()
	for i, r := range reqs {
		want := core.Solve(tr, r.load, avail, r.k)
		if r.phi != want.Cost {
			t.Fatalf("warm request %d: phi %v, want %v", i, r.phi, want.Cost)
		}
	}
}

// TestSchedulerBatchSolveInvariants hammers a BatchSolve scheduler from
// many goroutines with mixed budgets and audits the same end-state
// invariants as the per-engine path: every lease's reported Φ is
// exactly the utilization of its blue set, no switch oversubscribed,
// residuals consistent with the held slots.
func TestSchedulerBatchSolveInvariants(t *testing.T) {
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 2, Workers: 4, BatchSolve: true})
	defer s.Close()

	const goroutines = 8
	var mu sync.Mutex
	live := make(map[int64]*Lease)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var mine []int64
			for i := 0; i < 25; i++ {
				loads := load.GenerateSparse(tr, load.PaperUniform(), 4, rng)
				k := []int{3, 4, 6}[rng.Intn(3)]
				lease, err := s.Place(loads, k)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				live[lease.ID] = lease
				mu.Unlock()
				mine = append(mine, lease.ID)
				if rng.Intn(2) == 0 {
					id := mine[rng.Intn(len(mine))]
					mu.Lock()
					_, held := live[id]
					delete(live, id)
					mu.Unlock()
					if held {
						if err := s.Release(id); err != nil {
							t.Errorf("release(%d): %v", id, err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	used := make([]int, tr.N())
	for id := range live {
		got, err := s.Lookup(id)
		if err != nil {
			t.Fatalf("lookup(%d): %v", id, err)
		}
		blue := make([]bool, tr.N())
		for _, v := range got.Blue {
			blue[v] = true
			used[v]++
		}
		if len(got.Blue) > got.K {
			t.Fatalf("lease %d holds %d switches with budget %d", id, len(got.Blue), got.K)
		}
		if phi := reduce.Utilization(tr, got.Load, blue); phi != got.Phi {
			t.Fatalf("lease %d: reported Φ %v, placement costs %v", id, got.Phi, phi)
		}
	}
	for v, res := range s.Residual() {
		if res < 0 {
			t.Fatalf("switch %d oversubscribed: residual %d", v, res)
		}
		if res != 2-used[v] {
			t.Fatalf("switch %d: residual %d with %d slots held", v, res, used[v])
		}
	}
	if m := s.Metrics(); m.Placed != goroutines*25 {
		t.Fatalf("placed %d, want %d", m.Placed, goroutines*25)
	}
}
