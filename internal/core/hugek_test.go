package core

import (
	"math"
	"math/rand"
	"testing"

	"soar/internal/reduce"
	"soar/internal/topology"
)

// This file is the regression net for the scratch-row clamping (see
// arena.go newScratch): every engine must size its merge rows by the
// root's *effective* cap, never the raw budget k. Before the clamping, a
// budget of 1<<30 allocated four ~8 GiB scratch rows per engine — these
// tests would die on memory long before asserting anything.

// TestHugeBudgetRowsClampToCapacity solves with k = 1<<30 over a sparse
// availability set. The optimum must match the k = |Λ| solve (a budget
// beyond the capacity sum buys nothing), and the run must complete in
// test-scale memory, which it only does if all scratch is cap-clamped.
func TestHugeBudgetRowsClampToCapacity(t *testing.T) {
	const hugeK = 1 << 30
	tr := topology.MustBT(256)
	rng := rand.New(rand.NewSource(41))
	n := tr.N()
	loads := make([]int, n)
	avail := make([]bool, n)
	navail := 0
	for v := 0; v < n; v++ {
		loads[v] = rng.Intn(5)
		if rng.Intn(8) == 0 {
			avail[v] = true
			navail++
		}
	}

	want := Solve(tr, loads, avail, navail)
	inc := NewIncremental(tr, loads, avail, hugeK)
	memo := NewMemo(tr)

	for name, res := range map[string]Result{
		"serial":      Solve(tr, loads, avail, hugeK),
		"memo":        SolveMemo(memo, loads, avail, hugeK),
		"incremental": inc.Solve(),
	} {
		if math.Abs(res.Cost-want.Cost) > 1e-9 {
			t.Fatalf("%s: huge-k φ=%v, |Λ|-budget φ=%v", name, res.Cost, want.Cost)
		}
		if sim := reduce.Utilization(tr, loads, res.Blue); math.Abs(sim-res.Cost) > 1e-9 {
			t.Fatalf("%s: placement costs %v, reported %v", name, sim, res.Cost)
		}
	}

	// The message-passing protocol engine sizes per-switch scratch the
	// same way; a leaf's state under the huge budget must stay tiny.
	leaf := tr.Leaves()[0]
	ns, err := NewNodeStateCaps(tr, leaf, loads[leaf], loads[leaf] > 0, 1, hugeK, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ns.Cap(); got != 1 {
		t.Fatalf("leaf cap under huge budget = %d, want 1", got)
	}
}

// TestIncrementalScratchRegrowOnCapRaise raises the root's capacity sum
// after construction: SetCap can widen the widest DP row past what the
// engine's merge scratch was built for, so Flush must regrow it. Without
// the regrow, computeNode slices the stale scratch out of range.
func TestIncrementalScratchRegrowOnCapRaise(t *testing.T) {
	tr := topology.MustBT(64)
	n := tr.N()
	rng := rand.New(rand.NewSource(43))
	loads := make([]int, n)
	caps := make([]int, n)
	for v := 0; v < n; v++ {
		loads[v] = rng.Intn(4)
	}
	caps[tr.Root()] = 1 // root cap sum starts at 1: minimal scratch

	const k = 1 << 20
	inc := NewIncrementalCaps(tr, loads, caps, k)
	if got := inc.Cost(); got != SolveCaps(tr, loads, caps, k).Cost {
		t.Fatalf("pre-raise cost %v diverges", got)
	}

	// Raise capacities in waves; each wave widens the root's effective
	// cap, and heavy weights push it far past the initial scratch width.
	for wave := 0; wave < 3; wave++ {
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				inc.SetCap(v, 1+rng.Intn(50))
			}
		}
		got := inc.Solve()
		ref := SolveCaps(tr, loads, inc.Capacities(), k)
		if math.Abs(got.Cost-ref.Cost) > 1e-9 {
			t.Fatalf("wave %d: incremental φ=%v, from-scratch φ=%v", wave, got.Cost, ref.Cost)
		}
		for v := range got.Blue {
			if got.Blue[v] != ref.Blue[v] {
				t.Fatalf("wave %d: placement differs at switch %d", wave, v)
			}
		}
	}
}
