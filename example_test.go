package soar_test

import (
	"fmt"

	"soar"
)

// The package-level quickstart: solve the paper's running example.
func Example() {
	t := soar.CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	res := soar.Solve(t, loads, 2)
	fmt.Println(res.Cost)
	// Output: 20
}

// Solving for growing budgets reproduces the paper's Fig. 3 optima.
func ExampleSolve() {
	t := soar.CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	for k := 0; k <= 4; k++ {
		fmt.Printf("k=%d phi=%g\n", k, soar.Solve(t, loads, k).Cost)
	}
	// Output:
	// k=0 phi=51
	// k=1 phi=35
	// k=2 phi=20
	// k=3 phi=15
	// k=4 phi=11
}

// Utilization evaluates any placement — here the paper's Fig. 2
// baselines against the optimum.
func ExampleUtilization() {
	t := soar.CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	for _, s := range soar.Baselines() {
		blue := s.Place(t, loads, nil, 2)
		fmt.Printf("%s %g\n", s.Name(), soar.Utilization(t, loads, blue))
	}
	fmt.Printf("soar %g\n", soar.Solve(t, loads, 2).Cost)
	// Output:
	// top 27
	// max 24
	// level 21
	// soar 20
}

// Restricting the availability set Λ models partially upgraded networks.
func ExampleSolveRestricted() {
	t := soar.CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	// Only the two mid switches were upgraded.
	avail := []bool{false, true, true, false, false, false, false}
	res := soar.SolveRestricted(t, loads, avail, 2)
	fmt.Println(res.Cost)
	// Output: 21
}

// Heterogeneous capacities: a blue switch consumes its capacity weight
// from the budget, so two weight-1 switches beat one weight-2 switch if
// the budget allows — and caps of 0 mark plain forwarders.
func ExampleSolveCaps() {
	t := soar.CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	// Root tier costs 1 unit, mid tier 2, leaves 4 (tiered fat-tree).
	caps := soar.CapsTiered(t, 1, 2, 4)
	uniform := soar.Solve(t, loads, 2)
	tiered := soar.SolveCaps(t, loads, caps, 2)
	fmt.Println(uniform.Cost, tiered.Cost)
	// Output: 20 35
}

// Trees are built from parent vectors; rates are per-edge.
func ExampleNewTree() {
	// A path d ← 0 ← 1 with a slow top link (rate 1/2).
	t, err := soar.NewTree([]int{soar.NoParent, 0}, []float64{0.5, 1})
	if err != nil {
		panic(err)
	}
	// 4 servers at the bottom, no aggregation: 4 messages cross each
	// edge; the top edge costs 2 per message.
	fmt.Println(soar.Utilization(t, []int{0, 4}, []bool{false, false}))
	// One blue switch at the bottom leaves 1 message per edge.
	fmt.Println(soar.Solve(t, []int{0, 4}, 1).Cost)
	// Output:
	// 12
	// 3
}

// MessageCounts exposes per-link traffic, the msg_e of the paper's Eq. 1.
func ExampleMessageCounts() {
	t := soar.CompleteBinaryTree(3)
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	counts := soar.MessageCounts(t, loads, make([]bool, t.N()))
	fmt.Println(counts[t.Root()]) // everything converges on the (r,d) edge
	// Output: 17
}

// The concurrent scheduler serves many tenants over one shared tree:
// each Place runs SOAR against the residual lease capacities and
// charges the chosen switches; Release reclaims them.
func ExampleNewScheduler() {
	t := soar.CompleteBinaryTree(3)
	s := soar.NewScheduler(t, soar.SchedulerConfig{Capacity: 1})
	defer s.Close()
	lease, err := s.Place([]int{0, 0, 0, 2, 6, 5, 4}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(lease.Phi)       // the paper's Fig. 2d optimum
	fmt.Println(len(lease.Blue)) // two aggregation switches leased
	fmt.Println(s.Release(lease.ID) == nil)
	// Output:
	// 20
	// 2
	// true
}
