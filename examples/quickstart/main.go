// Quickstart: place a bounded number of in-network aggregation switches
// optimally with SOAR and compare against the paper's baseline
// strategies, using only the public facade (package soar).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"soar"
)

func main() {
	// A small datacenter aggregation tree: BT(64) is a complete binary
	// tree of 63 switches whose 32 leaves are top-of-rack switches.
	t, err := soar.BT(64)
	if err != nil {
		log.Fatal(err)
	}
	// Racks hold a heavy-tailed number of servers, as in the paper's
	// power-law workload (mean 5, up to 63 servers per rack).
	loads := soar.PowerLawLoads(t, 42)

	allRed := soar.Utilization(t, loads, make([]bool, t.N()))
	fmt.Printf("network: %d switches, height %d\n", t.N(), t.Height())
	fmt.Printf("all-red Reduce utilization: %.0f\n\n", allRed)

	fmt.Printf("%-6s %-10s %12s %10s\n", "k", "strategy", "utilization", "vs all-red")
	for _, k := range []int{1, 2, 4, 8, 16} {
		// SOAR: the provably optimal placement.
		res := soar.Solve(t, loads, k)
		fmt.Printf("%-6d %-10s %12.0f %10.3f\n", k, "soar", res.Cost, res.Cost/allRed)
		// The natural heuristics it beats (paper Sec. 3).
		for _, s := range soar.Baselines() {
			blue := s.Place(t, loads, nil, k)
			phi := soar.Utilization(t, loads, blue)
			fmt.Printf("%-6s %-10s %12.0f %10.3f\n", "", s.Name(), phi, phi/allRed)
		}
	}

	// The placement itself: which switches should aggregate at k = 8?
	res := soar.Solve(t, loads, 8)
	fmt.Println("\noptimal aggregation switches at k=8:")
	for v, b := range res.Blue {
		if b {
			fmt.Printf("  switch %d (depth %d, subtree load %d)\n",
				v, t.Depth(v), t.SubtreeLoads(loads)[v])
		}
	}

	// The paper's distributed deployment (Sec. 4.2: tables up, budgets
	// down, one message-passing node per switch) produces the identical
	// answer over real TCP: see examples/cluster.

	// Heterogeneous fabric: core switches are fully programmable
	// (weight 1), the aggregation layer is half-provisioned (weight 2)
	// and ToRs are expensive to enable (weight 4). The same budget now
	// buys fewer, better-placed aggregators; uniform provisioning
	// lower-bounds every mix.
	caps := soar.CapsTiered(t, 1, 2, 4)
	fmt.Println("\ntiered capacities (1/2/4 by level) vs uniform:")
	for _, k := range []int{4, 8, 16} {
		het := soar.SolveCaps(t, loads, caps, k)
		uni := soar.Solve(t, loads, k)
		fmt.Printf("  k=%-3d uniform %.3f  tiered %.3f\n", k, uni.Cost/allRed, het.Cost/allRed)
	}
}
