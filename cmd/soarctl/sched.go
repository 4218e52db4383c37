package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/reduce"
	"soar/internal/sched"
	"soar/internal/topology"
)

// runSched load-tests the concurrent placement scheduler: many client
// goroutines admit sparse tenants against one shared tree with bounded
// per-switch capacity, release a fraction of them (churn), and the
// command reports the scheduler's own metrics — throughput, admission
// latency quantiles, batch coalescing, commit conflicts, re-packer
// recoveries. With -baseline the same request mix is replayed against
// the pre-scheduler serving path (one mutex, a from-scratch solve per
// admission) and the speedup is printed.
func runSched(args []string) error {
	fs := newFlagSet("sched")
	n := fs.Int("n", 1024, "network size (complete binary tree, power of two)")
	k := fs.Int("k", 8, "aggregation switch budget per tenant")
	capacity := fs.Int("capacity", 16, "per-switch lease capacity (0 = unlimited)")
	capsSpec := fs.String("caps", "", capsProfileHelp+" — overrides -capacity; entries are tenant slots per switch")
	tenants := fs.Int("tenants", 2000, "total tenants to admit")
	clients := fs.Int("clients", 8, "concurrent client goroutines")
	workers := fs.Int("workers", 0, "scheduler engine-pool size (0 = GOMAXPROCS)")
	racks := fs.Int("racks", 8, "leaves each tenant loads (sparse tenants)")
	churn := fs.Float64("churn", 0.5, "probability a client releases one of its tenants after an admission")
	repackEvery := fs.Duration("repack-every", 25*time.Millisecond, "background re-packing period (0 = off)")
	repackMoves := fs.Int("repack-moves", 16, "migration budget per re-packing round")
	seed := fs.Int64("seed", 1, "random seed")
	baseline := fs.Bool("baseline", false, "also run the mutex-serialized from-scratch baseline and report the speedup")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := topology.BT(*n)
	if err != nil {
		return err
	}
	// The profile stream is salted away from the client streams
	// (*seed + c below), so a random profile never correlates with any
	// client's workload draws.
	caps, err := parseCapsProfile(*capsSpec, tr, rand.New(rand.NewSource(*seed^0x5ca1ab1e)))
	if err != nil {
		return err
	}
	s := sched.New(tr, sched.Config{
		Capacity:   *capacity,
		Capacities: caps,
		Workers:    *workers,
		Repack:     sched.RepackConfig{Every: *repackEvery, MaxMoves: *repackMoves},
	})
	defer s.Close()

	fmt.Printf("scheduler: BT(%d) switches=%d k=%d capacity=%d clients=%d repack=%v/%d\n",
		*n, tr.N(), *k, *capacity, *clients, *repackEvery, *repackMoves)
	if caps != nil {
		fmt.Printf("capacity profile: %s (%s)\n", *capsSpec, capsSummary(caps))
	}

	elapsed := driveClients(*clients, *tenants, func(c int) func() error {
		rng := rand.New(rand.NewSource(*seed + int64(c)))
		var lease sched.Lease
		var mine []int64
		return func() error {
			loads := load.GenerateSparse(tr, load.PaperPowerLaw(), *racks, rng)
			if err := s.PlaceInto(loads, *k, &lease); err != nil {
				return err
			}
			mine = append(mine, lease.ID)
			if rng.Float64() < *churn {
				j := rng.Intn(len(mine))
				id := mine[j]
				mine[j] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				if err := s.Release(id); err != nil {
					return err
				}
			}
			return nil
		}
	})

	m := s.Metrics()
	st := s.Snapshot()
	fmt.Printf("\nadmitted %d tenants in %v (%.0f placements/s)\n",
		m.Placed, elapsed.Round(time.Millisecond), float64(m.Placed)/elapsed.Seconds())
	fmt.Printf("  latency    p50=%v p95=%v p99=%v\n", m.PlaceP50, m.PlaceP95, m.PlaceP99)
	fmt.Printf("  batching   %d batches, mean %.2f, max %d, %d commit conflicts re-solved\n",
		m.Batches, m.MeanBatch, m.MaxBatch, m.Conflicts)
	fmt.Printf("  re-packer  %d rounds, %d tenants moved, Φ recovered %.1f\n",
		m.RepackRounds, m.RepackMoves, m.PhiRecovered)
	fmt.Printf("  state      %d live tenants, %d/%d slots used, mean ratio %.3f\n",
		st.Tenants, st.CapacityUsed, st.CapacityTotal, st.MeanRatio)

	if !*baseline {
		return nil
	}
	fmt.Printf("\nbaseline: mutex-serialized from-scratch solves, same request mix\n")
	b := &serialBaseline{t: tr, residual: make([]int, tr.N()), leases: make(map[int64][]int)}
	for v := range b.residual {
		switch {
		case caps != nil:
			b.residual[v] = caps[v]
		case *capacity <= 0:
			b.residual[v] = int(^uint(0) >> 1)
		default:
			b.residual[v] = *capacity
		}
	}
	baseElapsed := driveClients(*clients, *tenants, func(c int) func() error {
		rng := rand.New(rand.NewSource(*seed + int64(c)))
		var mine []int64
		return func() error {
			loads := load.GenerateSparse(tr, load.PaperPowerLaw(), *racks, rng)
			mine = append(mine, b.place(loads, *k))
			if rng.Float64() < *churn {
				j := rng.Intn(len(mine))
				id := mine[j]
				mine[j] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				b.release(id)
			}
			return nil
		}
	})
	basePerSec := float64(*tenants) / baseElapsed.Seconds()
	fmt.Printf("admitted %d tenants in %v (%.0f placements/s)\n",
		*tenants, baseElapsed.Round(time.Millisecond), basePerSec)
	fmt.Printf("scheduler speedup: %.1fx\n", baseElapsed.Seconds()/elapsed.Seconds())
	return nil
}

// driveClients runs `total` operations across `clients` goroutines and
// returns the wall-clock time. makeOp builds each client's closure (its
// private rng and lease state).
func driveClients(clients, total int, makeOp func(c int) func() error) time.Duration {
	var remaining atomic.Int64
	remaining.Store(int64(total))
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			op := makeOp(c)
			for remaining.Add(-1) >= 0 {
				if err := op(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		fmt.Printf("client error: %v\n", err)
	}
	return elapsed
}

// serialBaseline is the pre-scheduler serving path: one big lock and a
// from-scratch solve per admission.
type serialBaseline struct {
	mu       sync.Mutex
	t        *topology.Tree
	residual []int
	leases   map[int64][]int
	nextID   int64
}

func (b *serialBaseline) place(loads []int, k int) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	avail := make([]bool, b.t.N())
	for v, c := range b.residual {
		avail[v] = c > 0
	}
	res := core.Solve(b.t, loads, avail, k)
	_ = reduce.Utilization(b.t, loads, make([]bool, b.t.N()))
	id := b.nextID
	b.nextID++
	var blue []int
	for v, isBlue := range res.Blue {
		if isBlue {
			b.residual[v]--
			blue = append(blue, v)
		}
	}
	b.leases[id] = blue
	return id
}

func (b *serialBaseline) release(id int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, v := range b.leases[id] {
		b.residual[v]++
	}
	delete(b.leases, id)
}
