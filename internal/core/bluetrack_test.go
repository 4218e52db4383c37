package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"soar/internal/placement"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// This file pins the edges of the identity computeNode rests on,
//
//	Y_blue(ℓ, i) = Y_red(0, i − c(v)) + ρ(v, Aℓ)·min(1, L(T_v)),
//
// against the two-track paper-form reference of kernel_test.go: wide
// fan-outs under heterogeneous capacities (bitwise, dyadic ρ), non-dyadic
// ρ (within rounding) and red-only windows resized by SetCap.

// bushyInstance draws a tree whose internal switches have at least three
// children — several merges, hence several breadcrumb windows, per
// switch — with the given edge rates, small loads (some subtrees at zero)
// and capacities in {0,1,2,3}.
func bushyInstance(rng *rand.Rand, maxInternal int, omegas []float64) (*topology.Tree, []int, []int) {
	parent := []int{topology.NoParent}
	frontier := []int{0}
	for internal := 1 + rng.Intn(maxInternal); internal > 0 && len(frontier) > 0; internal-- {
		at := rng.Intn(len(frontier))
		v := frontier[at]
		frontier = slices.Delete(frontier, at, at+1)
		for c := 3 + rng.Intn(3); c > 0; c-- {
			frontier = append(frontier, len(parent))
			parent = append(parent, v)
		}
	}
	n := len(parent)
	omega := make([]float64, n)
	loads := make([]int, n)
	caps := make([]int, n)
	for v := range parent {
		omega[v] = omegas[rng.Intn(len(omegas))]
		if rng.Intn(3) != 0 {
			loads[v] = rng.Intn(5)
		}
		caps[v] = rng.Intn(4)
	}
	return topology.MustNew(parent, omega), loads, caps
}

// TestBlueTrackFromRedRowZeroHeterogeneousCaps: on dyadic rates the
// derived blue track is the folded one bit for bit — tables, colors,
// every split answer (requireKernelTables), every decide output and the
// placement — including budgets below c(v) (the i < c(v) columns) and
// switches whose c(v) exceeds k (blue never affordable).
func TestBlueTrackFromRedRowZeroHeterogeneousCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	unaffordable := 0
	for trial := 0; trial < 150; trial++ {
		tr, loads, caps := bushyInstance(rng, 8, []float64{0.5, 1, 2, 4})
		k := rng.Intn(7)
		for _, c := range caps {
			if c > k {
				unaffordable++
			}
		}
		got, want := GatherCaps(tr, loads, caps, k), gatherScalar(tr, loads, nil, caps, k)
		requireKernelTables(t, int64(trial), "bushy caps", tr, got, want)
		for v := 0; v < tr.N(); v++ {
			for l := 0; l <= tr.Depth(v); l++ {
				for i := 0; i <= k; i++ {
					gb, gBudget, gl := decide(tr, &got.nodes[v], v, i, l, nil)
					wb, wBudget, wl := scalarDecide(tr, &want.nodes[v], v, i, l)
					if gb != wb || gl != wl || !slices.Equal(gBudget, wBudget) {
						t.Fatalf("trial %d: decide(v=%d, i=%d, ℓ=%d) = (%v,%v,%d), reference (%v,%v,%d)",
							trial, v, i, l, gb, gBudget, gl, wb, wBudget, wl)
					}
				}
			}
		}
		blue, cost := ColorPhase(got)
		wantBlue, wantCost := scalarColorPhase(want)
		requirePlacementBitwise(t, "bushy caps", Result{blue, cost}, Result{wantBlue, wantCost})
	}
	if unaffordable == 0 {
		t.Fatal("no instance had a switch with c(v) > k; test is vacuous")
	}
}

// TestBlueTrackNonDyadicRates states the narrowing DESIGN.md records:
// the reference adds ρ(v, Aℓ)·bsend before the fold, computeNode after,
// so under rates whose sums round (1/3, 1/5, 1/7 …) φ may differ from
// the paper-form fold in the last place and an exact tie may resolve to
// another, equally optimal set. What must hold is optimality within
// rounding: φ against the reference and against brute force, and the
// returned set's simulated cost against φ.
func TestBlueTrackNonDyadicRates(t *testing.T) {
	const tol = 1e-12
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }
	rng := rand.New(rand.NewSource(2402))
	bf := placement.BruteForce{}
	for trial := 0; trial < 120; trial++ {
		tr, loads, caps := bushyInstance(rng, 2, []float64{3, 5, 7})
		if trial%2 == 0 {
			tr = topology.ApplyRates(tr, topology.RatesLinear())
		}
		k := rng.Intn(6)
		res := SolveCaps(tr, loads, caps, k)
		if _, want := scalarColorPhase(gatherScalar(tr, loads, nil, caps, k)); !near(res.Cost, want) {
			t.Fatalf("trial %d: caps φ=%v, reference φ=%v", trial, res.Cost, want)
		}
		if sim := reduce.Utilization(tr, loads, res.Blue); !near(sim, res.Cost) {
			t.Fatalf("trial %d: caps placement costs %v, reported φ=%v", trial, sim, res.Cost)
		}
		// Brute force knows the uniform model only: Λ = {c(v) ≥ 1}.
		avail := make([]bool, tr.N())
		for v, c := range caps {
			avail[v] = c >= 1
		}
		uni := Solve(tr, loads, avail, k)
		if _, want := scalarColorPhase(gatherScalar(tr, loads, avail, nil, k)); !near(uni.Cost, want) {
			t.Fatalf("trial %d: φ=%v, reference φ=%v", trial, uni.Cost, want)
		}
		if tr.N() <= 14 {
			if _, want := bf.Search(tr, loads, avail, k); !near(uni.Cost, want) {
				t.Fatalf("trial %d: φ=%v, brute force φ=%v", trial, uni.Cost, want)
			}
		}
		if sim := reduce.Utilization(tr, loads, uni.Blue); !near(sim, uni.Cost) {
			t.Fatalf("trial %d: placement costs %v, reported φ=%v", trial, sim, uni.Cost)
		}
	}
}

// TestIncrementalSetCapResizesRedOnlyWindows flips capacities across
// 0/1/2 between flushes, so effective caps — and with them the width of
// every table and red-only breadcrumb window on the root path — shrink
// and regrow in place; the engine must stay bitwise equal to a fresh
// GatherCaps, split answers and placement included.
func TestIncrementalSetCapResizesRedOnlyWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	for trial := 0; trial < 20; trial++ {
		tr, loads, caps := bushyInstance(rng, 6, []float64{0.5, 1, 2, 4})
		k := 1 + rng.Intn(6)
		inc := NewIncrementalCaps(tr, loads, caps, k)
		for step := 0; step < 30; step++ {
			for flips := 1 + rng.Intn(3); flips > 0; flips-- {
				v := rng.Intn(tr.N())
				caps[v] = rng.Intn(3)
				inc.SetCap(v, caps[v])
			}
			requireKernelTables(t, int64(trial), "incremental SetCap", tr, inc.Tables(), gatherScalar(tr, loads, nil, caps, k))
			requirePlacementBitwise(t, "incremental SetCap", inc.Solve(), SolveCaps(tr, loads, caps, k))
		}
	}
}
