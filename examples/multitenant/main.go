// Multi-tenant online allocation, in two acts.
//
// Act 1 is the paper's Sec. 5.2 model: workloads arrive one at a time,
// every switch can aggregate for at most a few workloads (bounded
// capacity), and each arrival gets its aggregation switches before the
// next is seen. SOAR applied online degrades gracefully as capacity
// fills, and stays ahead of the baselines.
//
// Act 2 is what that model becomes at service scale: thousands of
// tenants arriving and departing concurrently, admitted by the
// internal/sched scheduler — batched arrivals, a pool of incremental
// SOAR engines, commit-order conflict resolution, and a background
// re-packer that recovers the utilization departures fragment away.
//
//	go run ./examples/multitenant
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/obs"
	"soar/internal/placement"
	"soar/internal/sched"
	"soar/internal/topology"
	"soar/internal/workload"
)

func main() {
	sequentialComparison()
	concurrentScheduler()
}

// sequentialComparison reproduces the paper's online setting: one
// shared arrival sequence, four strategies, paired comparison.
func sequentialComparison() {
	t, err := topology.BT(128)
	if err != nil {
		log.Fatal(err)
	}
	const (
		budget   = 8  // aggregation switches per workload
		capacity = 3  // workloads a switch can serve
		arrivals = 24 // tenants arriving online
	)

	// One shared arrival sequence makes the comparison paired.
	seq := workload.NewSequence(t, rand.New(rand.NewSource(3)))
	tenants := make([][]int, arrivals)
	for i := range tenants {
		tenants[i] = seq.Next()
	}

	strategies := []placement.Strategy{
		core.Strategy{}, placement.Top{}, placement.Max{}, placement.Level{},
	}
	fmt.Printf("%d tenants arriving online, k=%d per tenant, switch capacity %d\n\n",
		arrivals, budget, capacity)
	fmt.Printf("%-10s", "tenant")
	for _, s := range strategies {
		fmt.Printf(" %10s", s.Name())
	}
	fmt.Println(" (cumulative utilization vs all-red)")

	results := make([]workload.RunResult, len(strategies))
	for si, s := range strategies {
		alloc := workload.NewAllocator(t, s, budget, capacity)
		results[si] = workload.Run(alloc, tenants)
	}
	for i := 0; i < arrivals; i += 4 {
		fmt.Printf("%-10d", i+1)
		for si := range strategies {
			fmt.Printf(" %10.3f", results[si].CumulativeRatio[i])
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "final")
	for si := range strategies {
		fmt.Printf(" %10.3f", results[si].CumulativeRatio[arrivals-1])
	}
	fmt.Println()

	fmt.Println("\nEarly tenants enjoy deep savings; once capacities fill, later tenants")
	fmt.Println("run closer to all-red and the cumulative ratio climbs (paper Fig. 7).")
}

// concurrentScheduler drives the placement scheduler with thousands of
// churning tenants from parallel clients.
func concurrentScheduler() {
	t, err := topology.BT(1024)
	if err != nil {
		log.Fatal(err)
	}
	const (
		budget   = 8    // aggregation switches per tenant
		capacity = 8    // tenants a switch can serve
		racks    = 8    // leaves each tenant loads
		clients  = 16   // concurrent request streams
		tenants  = 4000 // admissions across all clients
	)
	s := sched.New(t, sched.Config{
		Capacity: capacity,
		Repack:   sched.RepackConfig{Every: 20 * time.Millisecond, MaxMoves: 16},
	})
	defer s.Close()

	fmt.Printf("\n--- concurrent: %d tenants, %d clients, BT(1024), k=%d, capacity %d ---\n",
		tenants, clients, budget, capacity)

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			var lease sched.Lease
			var mine []int64
			for i := 0; i < tenants/clients; i++ {
				loads := load.GenerateSparse(t, load.PaperPowerLaw(), racks, rng)
				if err := s.PlaceInto(loads, budget, &lease); err != nil {
					log.Fatal(err)
				}
				mine = append(mine, lease.ID)
				// Two-thirds of tenants eventually depart, fragmenting
				// capacity for the re-packer to reclaim.
				if rng.Intn(3) > 0 && len(mine) > 4 {
					j := rng.Intn(len(mine))
					id := mine[j]
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := s.Release(id); err != nil {
						log.Fatal(err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	admitted := clients * (tenants / clients)
	st := s.Snapshot()
	fmt.Printf("admitted %d tenants in %v — %.0f placements/s\n",
		admitted, elapsed.Round(time.Millisecond), float64(admitted)/elapsed.Seconds())

	// Everything else the scheduler counted lives in its metrics
	// registry: read it back the way any scrape consumer would.
	var page bytes.Buffer
	if err := s.Registry().WriteText(&page); err != nil {
		log.Fatal(err)
	}
	fams, err := obs.ParseText(&page)
	if err != nil {
		log.Fatal(err)
	}
	byName := map[string]obs.TextFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	val := func(name string) float64 { return byName[name].Samples[0].Value }
	bounds, cum, _, err := obs.HistogramSeries(byName["soar_sched_place_seconds"], nil)
	if err != nil {
		log.Fatal(err)
	}
	q := func(q float64) time.Duration {
		return time.Duration(obs.HistogramQuantile(q, bounds, cum) * float64(time.Second)).Round(time.Microsecond)
	}
	fmt.Printf("latency p50≈%v p95≈%v p99≈%v (histogram buckets); %.0f conflicts re-solved\n",
		q(0.50), q(0.95), q(0.99), val("soar_sched_conflicts_total"))
	fmt.Printf("re-packer: %.0f rounds moved %.0f tenants, Φ recovered %.1f\n",
		val("soar_sched_repack_rounds_total"), val("soar_sched_repack_moves_total"),
		val("soar_sched_repack_phi_recovered"))
	fmt.Printf("end state: %d live tenants on %d switches, mean ratio %.3f\n",
		st.Tenants, st.SwitchesInUse, st.MeanRatio)
	fmt.Println("\nThe scheduler batches arrivals onto pooled incremental engines and")
	fmt.Println("re-packs behind departures; a running soar-naasd serves the same")
	fmt.Println("registry as GET /metrics (see `soarctl top`).")
}
