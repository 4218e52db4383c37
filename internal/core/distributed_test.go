package core

import (
	"math"
	"math/rand"
	"testing"

	"soar/internal/paper"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// The tests below hold the paper's distributed protocol (Sec. 4.2) to
// the serial engine: solveProtocol (protocol_test.go) drives the same
// per-switch NodeState steps internal/cluster runs over TCP — children's
// X tables up, (budget, ℓ) assignments down — and must reproduce Solve's
// cost and placement switch for switch.

func TestDistributedMatchesSerialPaperExample(t *testing.T) {
	tr, loads := paper.Figure2()
	for k := 0; k <= 5; k++ {
		serial := Solve(tr, loads, nil, k)
		dist := solveProtocol(t, tr, loads, nil, k)
		if serial.Cost != dist.Cost {
			t.Fatalf("k=%d: serial φ=%v, distributed φ=%v", k, serial.Cost, dist.Cost)
		}
		for v := range serial.Blue {
			if serial.Blue[v] != dist.Blue[v] {
				t.Fatalf("k=%d: placements differ at switch %d", k, v)
			}
		}
	}
}

func TestDistributedMatchesSerialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		tr := topology.RandomRecursive(n, rng)
		loads := make([]int, n)
		avail := make([]bool, n)
		for v := 0; v < n; v++ {
			loads[v] = rng.Intn(6)
			avail[v] = rng.Intn(4) != 0
		}
		k := rng.Intn(6)
		serial := Solve(tr, loads, avail, k)
		dist := solveProtocol(t, tr, loads, avail, k)
		if math.Abs(serial.Cost-dist.Cost) > 1e-9 {
			t.Fatalf("trial %d: serial φ=%v, distributed φ=%v", trial, serial.Cost, dist.Cost)
		}
		for v := range serial.Blue {
			if serial.Blue[v] != dist.Blue[v] {
				t.Fatalf("trial %d: placements differ at switch %d", trial, v)
			}
		}
		if sim := reduce.Utilization(tr, loads, dist.Blue); math.Abs(sim-dist.Cost) > 1e-9 {
			t.Fatalf("trial %d: distributed cost %v but simulation %v", trial, dist.Cost, sim)
		}
	}
}

func TestDistributedDeepTree(t *testing.T) {
	// Long dependency chains: every switch builds on exactly one child.
	tr := topology.Path(200)
	loads := make([]int, 200)
	loads[199] = 9
	serial := Solve(tr, loads, nil, 3)
	dist := solveProtocol(t, tr, loads, nil, 3)
	if serial.Cost != dist.Cost {
		t.Fatalf("serial φ=%v, distributed φ=%v", serial.Cost, dist.Cost)
	}
}

func TestDistributedWideTree(t *testing.T) {
	// High fan-in: the root merges many children's tables at once.
	tr := topology.Star(300)
	loads := make([]int, 300)
	for v := 1; v < 300; v++ {
		loads[v] = 1 + v%4
	}
	serial := Solve(tr, loads, nil, 10)
	dist := solveProtocol(t, tr, loads, nil, 10)
	if serial.Cost != dist.Cost {
		t.Fatalf("serial φ=%v, distributed φ=%v", serial.Cost, dist.Cost)
	}
	for v := range serial.Blue {
		if serial.Blue[v] != dist.Blue[v] {
			t.Fatalf("placements differ at switch %d", v)
		}
	}
}
