package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"soar/internal/reduce"
	"soar/internal/topology"
)

// randomInstance decodes an arbitrary quick-generated seed into a
// well-formed φ-BIC instance. In sparse mode it is the same tree, Λ and
// k with about five in six loads zeroed, as under the online regime's
// few-rack tenants: it yields load-free first children, load-free later
// children and loaded switches whose children are all load-free, the
// shapes computeNode treats as the merge identity
// (TestRandomInstanceSparseShapes).
func randomInstance(seed int64, maxN, maxK int, sparse bool) (*topology.Tree, []int, []bool, int) {
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
	avail := make([]bool, n)
	for v := 0; v < n; v++ {
		loads[v] = rng.Intn(6)
		avail[v] = rng.Intn(5) != 0
	}
	k := rng.Intn(maxK + 1)
	if sparse {
		for v := range loads {
			if rng.Intn(5) != 0 {
				loads[v] = 0
			}
		}
	}
	return t, loads, avail, k
}

// TestRandomInstanceSparseShapes pins what the sparse oracles rely on:
// across a few hundred seeds, sparse mode reaches every load-free shape
// of the merge — a load-free first child followed by a loaded one (the
// constant-row merge, mergeFlat), a load-free child m ≥ 2 (the
// identity) and a loaded switch whose children are all load-free.
func TestRandomInstanceSparseShapes(t *testing.T) {
	var flatThenLoaded, zeroLater, allZero int
	for seed := int64(0); seed < 300; seed++ {
		tr, loads, _, _ := randomInstance(seed, 25, 6, true)
		sub := tr.SubtreeLoads(loads)
		for v := 0; v < tr.N(); v++ {
			kids := tr.Children(v)
			if sub[v] == 0 || len(kids) == 0 {
				continue
			}
			loaded := 0
			for m, c := range kids {
				switch {
				case sub[c] > 0:
					loaded++
					if m > 0 && sub[kids[0]] == 0 {
						flatThenLoaded++
					}
				case m > 0:
					zeroLater++
				}
			}
			if loaded == 0 {
				allZero++
			}
		}
	}
	if flatThenLoaded == 0 || zeroLater == 0 || allZero == 0 {
		t.Fatalf("sparse mode missed a shape: load-free first then loaded %d, load-free later %d, all load-free %d",
			flatThenLoaded, zeroLater, allZero)
	}
}

func TestQuickSOARMatchesReference(t *testing.T) {
	// Mid-size cross-check: the table engine agrees with the independent
	// recursive-memoized reference on instances far beyond brute force.
	f := func(seed int64) bool {
		tr, loads, avail, k := randomInstance(seed, 60, 10, false)
		got := Solve(tr, loads, avail, k).Cost
		want := referenceCost(tr, loads, avail, k)
		return math.Abs(got-want) <= 1e-9
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReportedCostMatchesSimulation(t *testing.T) {
	// The cost SOAR reports is always exactly what its placement costs.
	f := func(seed int64) bool {
		tr, loads, avail, k := randomInstance(seed, 50, 8, false)
		res := Solve(tr, loads, avail, k)
		return math.Abs(res.Cost-reduce.Utilization(tr, loads, res.Blue)) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTableMonotoneInBudget(t *testing.T) {
	// X_v(ℓ, i) is non-increasing in i for every switch and every ℓ: a
	// larger budget can never hurt a subtree ("at most i" semantics).
	f := func(seed int64) bool {
		tr, loads, avail, k := randomInstance(seed, 40, 8, false)
		tb := Gather(tr, loads, avail, k)
		for v := 0; v < tr.N(); v++ {
			for l := 0; l <= tr.Depth(v); l++ {
				for i := 1; i <= k; i++ {
					if tb.X(v, l, i) > tb.X(v, l, i-1)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTableMonotoneInDistance(t *testing.T) {
	// X_v(ℓ, i) is non-decreasing in ℓ: being farther from the barrier
	// can only add upstream cost (every ρ is positive).
	f := func(seed int64) bool {
		tr, loads, avail, k := randomInstance(seed, 40, 6, false)
		tb := Gather(tr, loads, avail, k)
		for v := 0; v < tr.N(); v++ {
			for i := 0; i <= k; i++ {
				for l := 1; l <= tr.Depth(v); l++ {
					if tb.X(v, l, i) < tb.X(v, l-1, i)-1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChildOrderIrrelevant(t *testing.T) {
	// The optimum cannot depend on the order in which a switch's children
	// are folded into the DP. Relabeling the switches (which permutes
	// child order) must preserve the optimal cost.
	f := func(seed int64) bool {
		tr, loads, _, k := randomInstance(seed, 30, 6, false)
		base := Solve(tr, loads, nil, k).Cost

		// Relabel by reversing ids: new id = n-1-old. Children orders flip.
		n := tr.N()
		parent := make([]int, n)
		omega := make([]float64, n)
		loads2 := make([]int, n)
		for v := 0; v < n; v++ {
			nv := n - 1 - v
			if p := tr.Parent(v); p == topology.NoParent {
				parent[nv] = topology.NoParent
			} else {
				parent[nv] = n - 1 - p
			}
			omega[nv] = 1 / tr.Rho(v)
			loads2[nv] = loads[v]
		}
		tr2 := topology.MustNew(parent, omega)
		relabeled := Solve(tr2, loads2, nil, k).Cost
		return math.Abs(base-relabeled) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBudgetBeyondAvailIsFree(t *testing.T) {
	// Budget beyond |Λ| is unusable: cap[root] = min(k, |Λ|), so raising
	// k past the number of available switches changes nothing — cost and
	// placement are identical (bitwise: both solves read the same clamped
	// tables).
	f := func(seed int64) bool {
		tr, loads, avail, k := randomInstance(seed, 40, 6, false)
		nAvail := 0
		for v := 0; v < tr.N(); v++ {
			if avail[v] {
				nAvail++
			}
		}
		if k < nAvail {
			k = nAvail // start at saturation
		}
		base := Solve(tr, loads, avail, k)
		huge := Solve(tr, loads, avail, k+1+int(seed%13&7))
		if base.Cost != huge.Cost {
			return false
		}
		for v := range base.Blue {
			if base.Blue[v] != huge.Blue[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAvailabilityMonotone(t *testing.T) {
	// Enlarging Λ can only improve the optimum.
	f := func(seed int64) bool {
		tr, loads, avail, k := randomInstance(seed, 35, 6, false)
		restricted := Solve(tr, loads, avail, k).Cost
		full := Solve(tr, loads, nil, k).Cost
		return full <= restricted+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRateScalingScalesCost(t *testing.T) {
	// Multiplying every rate by c divides the optimal cost by c, and the
	// optimal placement remains optimal.
	f := func(seed int64, scale uint8) bool {
		c := float64(scale%7) + 2
		tr, loads, _, k := randomInstance(seed, 30, 5, false)
		n := tr.N()
		omega := make([]float64, n)
		parent := make([]int, n)
		for v := 0; v < n; v++ {
			parent[v] = tr.Parent(v)
			omega[v] = c / tr.Rho(v)
		}
		scaled := topology.MustNew(parent, omega)
		a := Solve(tr, loads, nil, k).Cost
		b := Solve(scaled, loads, nil, k).Cost
		return math.Abs(a-b*c) <= 1e-6*(1+a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
