package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"soar/internal/placement"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// randomCapsInstance decodes a seed into a well-formed heterogeneous
// φ-BIC instance: random recursive tree, random loads, and a capacity
// vector mixing forwarders (0), standard switches (1) and heavier
// multi-unit switches (up to maxC).
func randomCapsInstance(seed int64, maxN, maxK, maxC int) (*topology.Tree, []int, []int, int) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(maxN)
	parent := make([]int, n)
	omega := make([]float64, n)
	parent[0] = topology.NoParent
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
	}
	for v := 0; v < n; v++ {
		omega[v] = []float64{0.5, 1, 2, 4}[rng.Intn(4)]
	}
	t := topology.MustNew(parent, omega)
	loads := make([]int, n)
	caps := make([]int, n)
	for v := 0; v < n; v++ {
		loads[v] = rng.Intn(6)
		caps[v] = rng.Intn(maxC + 1)
	}
	return t, loads, caps, rng.Intn(maxK + 1)
}

// TestCapsZeroOneBitwiseIdentical pins the regression contract of the
// generalization: with a 0/1 capacity vector, the capacity engines
// produce exactly the uniform engines' tables (values, colors, caps) and
// placement — bit for bit, not within tolerance.
func TestCapsZeroOneBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(50)
		tr := topology.RandomRecursive(n, rng)
		loads := make([]int, n)
		avail := make([]bool, n)
		caps := make([]int, n)
		for v := 0; v < n; v++ {
			loads[v] = rng.Intn(6)
			avail[v] = rng.Intn(4) != 0
			if avail[v] {
				caps[v] = 1
			}
		}
		k := rng.Intn(8)
		if trial%5 == 0 {
			k = n + 1 // clamp-at-sum corner
		}
		legacy := Gather(tr, loads, avail, k)
		viaCaps := GatherCaps(tr, loads, caps, k)
		for v := 0; v < n; v++ {
			if legacy.Cap(v) != viaCaps.Cap(v) {
				t.Fatalf("trial %d: Cap(%d): legacy %d, caps %d", trial, v, legacy.Cap(v), viaCaps.Cap(v))
			}
			for l := 0; l <= tr.Depth(v); l++ {
				for i := 0; i <= k; i++ {
					if legacy.X(v, l, i) != viaCaps.X(v, l, i) {
						t.Fatalf("trial %d: X_%d(%d,%d): legacy %v, caps %v",
							trial, v, l, i, legacy.X(v, l, i), viaCaps.X(v, l, i))
					}
					if legacy.Blue(v, l, i) != viaCaps.Blue(v, l, i) {
						t.Fatalf("trial %d: Blue_%d(%d,%d) differs", trial, v, l, i)
					}
				}
			}
		}
		a := Solve(tr, loads, avail, k)
		b := SolveCaps(tr, loads, caps, k)
		if a.Cost != b.Cost {
			t.Fatalf("trial %d: Solve φ=%v, SolveCaps φ=%v", trial, a.Cost, b.Cost)
		}
		for v := range a.Blue {
			if a.Blue[v] != b.Blue[v] {
				t.Fatalf("trial %d: placements differ at switch %d", trial, v)
			}
		}
	}
}

// TestCapsNilIsUniform: caps == nil must mean "capacity 1 everywhere",
// i.e. exactly Solve with every switch available.
func TestCapsNilIsUniform(t *testing.T) {
	tr, loads, _, k := randomInstance(3, 40, 6, false)
	a := Solve(tr, loads, nil, k)
	b := SolveCaps(tr, loads, nil, k)
	if a.Cost != b.Cost {
		t.Fatalf("Solve φ=%v, SolveCaps(nil) φ=%v", a.Cost, b.Cost)
	}
	for v := range a.Blue {
		if a.Blue[v] != b.Blue[v] {
			t.Fatalf("placements differ at switch %d", v)
		}
	}
}

// TestAllEnginesAgreeCaps drives every capacity-vector entry point —
// SolveCaps, SolveMemoCaps, NewIncrementalCaps — over randomized
// heterogeneous capacity profiles and requires identical costs and
// bitwise-identical placements, plus budget feasibility
// (Σ_{blue} caps[v] ≤ k, no blue where caps[v] = 0).
func TestAllEnginesAgreeCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		tr := topology.RandomRecursive(n, rng)
		loads := make([]int, n)
		caps := make([]int, n)
		for v := 0; v < n; v++ {
			loads[v] = rng.Intn(6)
			caps[v] = rng.Intn(4) // 0 = forwarder .. 3 = heavy switch
		}
		var k int
		switch trial % 4 {
		case 0:
			k = 0
		case 1:
			k = 3*n + rng.Intn(4) // beyond every subtree's capacity sum
		default:
			k = rng.Intn(10)
		}

		serial := SolveCaps(tr, loads, caps, k)
		inc := NewIncrementalCaps(tr, loads, caps, k)

		for name, res := range map[string]Result{
			"memo":        SolveMemoCaps(NewMemo(tr), loads, caps, k),
			"incremental": inc.Solve(),
		} {
			if math.Abs(res.Cost-serial.Cost) > 1e-9 {
				t.Fatalf("trial %d: %s φ=%v, serial φ=%v", trial, name, res.Cost, serial.Cost)
			}
			if sim := reduce.Utilization(tr, loads, res.Blue); math.Abs(sim-res.Cost) > 1e-9 {
				t.Fatalf("trial %d: %s placement costs %v, reported %v", trial, name, sim, res.Cost)
			}
			used := 0
			for v, b := range res.Blue {
				if b {
					if caps[v] == 0 {
						t.Fatalf("trial %d: %s colored zero-capacity switch %d", trial, name, v)
					}
					used += caps[v]
				}
				if b != serial.Blue[v] {
					t.Fatalf("trial %d: %s placement differs from serial at switch %d", trial, name, v)
				}
			}
			if used > k {
				t.Fatalf("trial %d: %s spent %d capacity units with budget %d", trial, name, used, k)
			}
		}
	}
}

// TestCapsMatchesBruteForce certifies the weighted DP against exhaustive
// enumeration of every feasible subset on small instances.
func TestCapsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bf := placement.BruteForce{}
	for trial := 0; trial < 120; trial++ {
		tr, loads, caps, k := randomCapsInstance(rng.Int63(), 11, 6, 3)
		res := SolveCaps(tr, loads, caps, k)
		_, want := bf.SearchCaps(tr, loads, caps, k)
		if math.Abs(res.Cost-want) > 1e-9 {
			t.Fatalf("trial %d: SolveCaps φ=%v, brute force φ=%v (n=%d k=%d caps=%v loads=%v)",
				trial, res.Cost, want, tr.N(), k, caps, loads)
		}
	}
}

// TestQuickCapsMatchesReference cross-checks the weighted table engine
// against the independent recursive reference on mid-size instances
// beyond brute force.
func TestQuickCapsMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		tr, loads, caps, k := randomCapsInstance(seed, 60, 10, 4)
		got := SolveCaps(tr, loads, caps, k).Cost
		want := referenceCostCaps(tr, loads, caps, k)
		return math.Abs(got-want) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCapsUniformWeightReduction: if every switch costs the same c,
// a budget of k buys exactly ⌊k/c⌋ switches — the instance reduces to
// the uniform model with budget ⌊k/c⌋.
func TestQuickCapsUniformWeightReduction(t *testing.T) {
	f := func(seed int64, cRaw uint8) bool {
		c := 1 + int(cRaw%5)
		tr, loads, _, k := randomInstance(seed, 40, 8, false)
		caps := make([]int, tr.N())
		for v := range caps {
			caps[v] = c
		}
		weighted := SolveCaps(tr, loads, caps, k*c+rand.New(rand.NewSource(seed)).Intn(c)).Cost
		uniform := Solve(tr, loads, nil, k).Cost
		return math.Abs(weighted-uniform) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCapsMonotone pins the two monotonicity directions of the
// model: cheapening a positive capacity (keeping it positive) can only
// improve the optimum, and zeroing a capacity (removing the switch from
// Λ) can only worsen it. Raising k can only improve it.
func TestQuickCapsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		tr, loads, caps, k := randomCapsInstance(seed, 40, 8, 4)
		base := SolveCaps(tr, loads, caps, k).Cost
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		v := rng.Intn(tr.N())

		cheaper := append([]int(nil), caps...)
		if cheaper[v] > 1 {
			cheaper[v]--
			if SolveCaps(tr, loads, cheaper, k).Cost > base+1e-9 {
				return false
			}
		}
		zeroed := append([]int(nil), caps...)
		zeroed[v] = 0
		if SolveCaps(tr, loads, zeroed, k).Cost < base-1e-9 {
			return false
		}
		return SolveCaps(tr, loads, caps, k+1+rng.Intn(3)).Cost <= base+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalCapsChurn drives the stateful engine through random
// SetCap / SetLoad sequences over heterogeneous profiles and, after
// every flush, requires bitwise agreement with a from-scratch GatherCaps
// and placement agreement with the other capacity engines.
func TestIncrementalCapsChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		tr, loads, caps, k := randomCapsInstance(rng.Int63(), 45, 7, 3)
		n := tr.N()
		inc := NewIncrementalCaps(tr, loads, caps, k)
		for step := 0; step < 10; step++ {
			for b := 1 + rng.Intn(4); b > 0; b-- {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					loads[v] = rng.Intn(6)
					inc.SetLoad(v, loads[v])
				} else {
					caps[v] = rng.Intn(4)
					inc.SetCap(v, caps[v])
				}
			}
			got := inc.Solve()
			ref := SolveCaps(tr, loads, caps, k)
			if math.Abs(got.Cost-ref.Cost) > 1e-9 {
				t.Fatalf("trial %d step %d: incremental φ=%v, serial φ=%v", trial, step, got.Cost, ref.Cost)
			}
			for v := range got.Blue {
				if got.Blue[v] != ref.Blue[v] {
					t.Fatalf("trial %d step %d: placement differs at switch %d", trial, step, v)
				}
			}
			full := GatherCaps(tr, loads, caps, k)
			itb := inc.Tables()
			for v := 0; v < n; v++ {
				if itb.Cap(v) != full.Cap(v) || itb.Capacity(v) != full.Capacity(v) {
					t.Fatalf("trial %d step %d: switch %d cap/capacity drifted", trial, step, v)
				}
				for l := 0; l <= tr.Depth(v); l++ {
					for i := 0; i <= k; i++ {
						if itb.X(v, l, i) != full.X(v, l, i) {
							t.Fatalf("trial %d step %d: X_%d(%d,%d): incremental %v, full %v",
								trial, step, v, l, i, itb.X(v, l, i), full.X(v, l, i))
						}
					}
				}
			}
		}
	}
}

// TestCapsRejectsMalformed pins the validation contract: negative
// capacities and wrong-length vectors panic rather than mis-solve.
func TestCapsRejectsMalformed(t *testing.T) {
	tr := topology.MustBT(8)
	loads := make([]int, tr.N())
	for _, caps := range [][]int{
		{-1, 0, 0, 0, 0, 0, 0},
		make([]int, tr.N()+1),
		{MaxCapacity + 1, 0, 0, 0, 0, 0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("caps %v accepted", caps)
				}
			}()
			SolveCaps(tr, loads, caps, 2)
		}()
	}
}

// FuzzSolveCapsMatchesReference extends the fuzz surface to the
// heterogeneous model: fuzzer-chosen seeds decode into capacity-vector
// instances solved by every engine and checked against the independent
// reference. Explore with
// `go test -fuzz FuzzSolveCapsMatchesReference ./internal/core`.
func FuzzSolveCapsMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(99))
	f.Add(int64(-3))
	f.Add(int64(1 << 33))
	f.Fuzz(func(t *testing.T, seed int64) {
		tr, loads, caps, k := randomCapsInstance(seed, 25, 8, 4)
		res := SolveCaps(tr, loads, caps, k)
		want := referenceCostCaps(tr, loads, caps, k)
		if math.Abs(res.Cost-want) > 1e-9 {
			t.Fatalf("seed %d: SolveCaps φ=%v, reference φ=%v", seed, res.Cost, want)
		}
		if sim := reduce.Utilization(tr, loads, res.Blue); math.Abs(sim-res.Cost) > 1e-9 {
			t.Fatalf("seed %d: reported φ=%v but placement costs %v", seed, res.Cost, sim)
		}
		used := 0
		for v, b := range res.Blue {
			if b {
				used += caps[v]
			}
		}
		if used > k {
			t.Fatalf("seed %d: placement spends %d capacity units, budget %d", seed, used, k)
		}
		for name, other := range map[string]Result{
			"memo":        SolveMemoCaps(NewMemo(tr), loads, caps, k),
			"incremental": NewIncrementalCaps(tr, loads, caps, k).Solve(),
		} {
			if math.Abs(other.Cost-res.Cost) > 1e-9 {
				t.Fatalf("seed %d: %s φ=%v, serial φ=%v", seed, name, other.Cost, res.Cost)
			}
			for v := range res.Blue {
				if other.Blue[v] != res.Blue[v] {
					t.Fatalf("seed %d: %s placement differs at switch %d", seed, name, v)
				}
			}
		}
	})
}
