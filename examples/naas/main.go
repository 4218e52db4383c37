// Network-as-a-Service: the paper's envisioned deployment (Sec. 1) —
// a provider leases bounded in-network aggregation to tenants over an
// HTTP control plane. This example starts the service in-process on a
// loopback port, admits tenants with different budgets over real HTTP,
// releases one, and shows capacity being reclaimed.
//
//	go run ./examples/naas
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"time"

	"soar/internal/load"
	"soar/internal/naas"
	"soar/internal/sched"
	"soar/internal/topology"
)

func main() {
	tr, err := topology.BT(64)
	if err != nil {
		log.Fatal(err)
	}
	sch := sched.New(tr, sched.Config{Capacity: 2}) // every switch serves ≤ 2 tenants
	defer sch.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: naas.FromScheduler(sch).Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := naas.NewClient("http://"+ln.Addr().String(), nil)
	fmt.Printf("NaaS control plane on %s — %d switches, capacity 2\n\n", ln.Addr(), tr.N())

	// Tenants choose budgets matching the performance they need.
	rng := rand.New(rand.NewSource(4))
	budgets := []int{2, 4, 8, 16, 8, 4}
	var leases []*naas.ClientLease
	fmt.Printf("%-8s %-4s %-12s %-10s %s\n", "tenant", "k", "phi", "vs all-red", "leased switches")
	for i, k := range budgets {
		loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
		lease, err := client.Place(ctx, loads, k)
		if err != nil {
			log.Fatal(err)
		}
		leases = append(leases, lease)
		fmt.Printf("%-8d %-4d %-12.1f %-10.3f %v\n", i, k, lease.Phi, lease.Ratio, lease.Blue)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter admissions: %d tenants, %d/%d capacity slots used, mean ratio %.3f\n",
		st.Tenants, st.CapacityUsed, st.CapacityTotal, st.MeanRatio)

	// Tenant 3 (the big k=16 one) departs; its switches return to the pool.
	if err := client.Release(ctx, leases[3].ID); err != nil {
		log.Fatal(err)
	}
	st, err = client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after tenant 3 departs: %d tenants, %d/%d slots used\n",
		st.Tenants, st.CapacityUsed, st.CapacityTotal)

	// A late tenant benefits from the reclaimed capacity.
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
	lease, err := client.Place(ctx, loads, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("late tenant with k=16: φ=%.1f (%.3f of all-red)\n", lease.Phi, lease.Ratio)
}
