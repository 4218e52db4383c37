package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"soar/internal/paper"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// entryPoint is one solver entry point of TestAllEnginesAgree.
type entryPoint struct {
	name  string
	solve func(loads []int, avail []bool, caps []int, k int) Result
}

// TestAllEnginesAgree is the cross-engine table: every solver entry
// point the package exports — Solve, SolveCaps, SolveMemo, SolveMemoCaps,
// NewIncremental, NewIncrementalCaps (through Solve and through the
// serving path's SolveInto) and BatchSolver.Solve — over the instance
// shapes {every switch available, restricted Λ, capacity vector, k = 0,
// k ≥ n}, on dense loads and on sparse ones (most loads zero, so
// load-free subtrees reach every merge position), each checked against
// the independent reference DP (reference_test.go) and required to
// return bitwise-identical costs and placements: all of them share
// computeNode's clamped tables and tie-breaking, so their blue sets must
// match switch for switch. A
// uniform-model instance reaches the *Caps entry points as its 0/1
// vector; a genuine capacity vector only has the *Caps entry points.
// One Memo per tree serves every memoized solve of every shape, so the
// cache is exercised warm, across budgets and across both models.
func TestAllEnginesAgree(t *testing.T) {
	// The tree and its memo are set per trial; the entry points close
	// over them.
	var tr *topology.Tree
	var m *Memo
	weighted := []entryPoint{
		{"SolveCaps", func(loads []int, _ []bool, caps []int, k int) Result { return SolveCaps(tr, loads, caps, k) }},
		{"SolveMemoCaps", func(loads []int, _ []bool, caps []int, k int) Result { return SolveMemoCaps(m, loads, caps, k) }},
		{"NewIncrementalCaps", func(loads []int, _ []bool, caps []int, k int) Result {
			return NewIncrementalCaps(tr, loads, caps, k).Solve()
		}},
		{"NewIncrementalCaps.SolveInto", func(loads []int, _ []bool, caps []int, k int) Result {
			return solveInto(NewIncrementalCaps(tr, loads, caps, k))
		}},
	}
	all := append([]entryPoint{
		{"Solve", func(loads []int, avail []bool, _ []int, k int) Result { return Solve(tr, loads, avail, k) }},
		{"SolveMemo", func(loads []int, avail []bool, _ []int, k int) Result { return SolveMemo(m, loads, avail, k) }},
		{"NewIncremental", func(loads []int, avail []bool, _ []int, k int) Result {
			return NewIncremental(tr, loads, avail, k).Solve()
		}},
		{"NewIncremental.SolveInto", func(loads []int, avail []bool, _ []int, k int) Result {
			return solveInto(NewIncremental(tr, loads, avail, k))
		}},
		{"BatchSolver.Solve", func(loads []int, avail []bool, _ []int, k int) Result {
			return solveBatch(m, [][]int{loads}, avail, k)[0]
		}},
	}, weighted...)

	rng := rand.New(rand.NewSource(55))
	restricted := func(n int) []bool {
		avail := make([]bool, n)
		for v := range avail {
			avail[v] = rng.Intn(4) != 0
		}
		return avail
	}
	capVector := func(n int) []int {
		caps := make([]int, n)
		for v := range caps {
			caps[v] = rng.Intn(4) // 0 = forwarder .. 3 = heavy switch
		}
		return caps
	}
	// A shape draws (avail, caps, k); caps != nil marks a genuine
	// capacity vector. The two budget corners alternate between the
	// models, so k = 0 and k ≥ n are crossed with both.
	shapes := []struct {
		name string
		draw func(n, trial int) ([]bool, []int, int)
	}{
		{"nil avail", func(n, _ int) ([]bool, []int, int) { return nil, nil, rng.Intn(8) }},
		{"restricted avail", func(n, _ int) ([]bool, []int, int) { return restricted(n), nil, rng.Intn(8) }},
		{"capacity vector", func(n, _ int) ([]bool, []int, int) { return nil, capVector(n), rng.Intn(10) }},
		{"k=0", func(n, trial int) ([]bool, []int, int) {
			if trial%2 == 0 {
				return restricted(n), nil, 0
			}
			return nil, capVector(n), 0
		}},
		{"k>=n", func(n, trial int) ([]bool, []int, int) {
			if trial%2 == 0 {
				return restricted(n), nil, n + rng.Intn(4) // every cap clamps at |T_v ∩ Λ|
			}
			return nil, capVector(n), 3*n + rng.Intn(4) // beyond every subtree's capacity sum
		}},
	}

	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(40)
		tr = topology.RandomRecursive(n, rng)
		loads := make([]int, n)
		for v := range loads {
			loads[v] = rng.Intn(6)
		}
		// The sparse form keeps about one load in five, from a stream of
		// its own, so the dense instances stay as they were and every
		// shape, model and budget corner runs on both load forms.
		mask := rand.New(rand.NewSource(int64(trial)))
		sparse := make([]int, n)
		for v := range sparse {
			if mask.Intn(5) == 0 {
				sparse[v] = loads[v]
			}
		}
		m = NewMemo(tr)
		for _, sh := range shapes {
			avail, caps, k := sh.draw(n, trial)
			engines, weights := weighted, caps
			if caps == nil {
				engines = all
				if avail != nil {
					weights = capsFromAvail(tr, avail)
				}
			}
			for _, form := range []struct {
				name  string
				loads []int
			}{{"dense", loads}, {"sparse", sparse}} {
				checkEnginesAgree(t, fmt.Sprintf("trial %d %s %s", trial, sh.name, form.name), tr, engines, form.loads, avail, weights, k)
			}
		}
	}
}

// checkEnginesAgree runs one instance through every entry point of
// TestAllEnginesAgree: each must match the reference DP's φ, report the
// cost of its own placement, color no unavailable switch, stay within
// the budget, and agree with the first entry point bitwise.
func checkEnginesAgree(t *testing.T, label string, tr *topology.Tree, engines []entryPoint, loads []int, avail []bool, weights []int, k int) {
	t.Helper()
	want := referenceCostCaps(tr, loads, weights, k)
	var first Result
	for i, e := range engines {
		res := e.solve(loads, avail, weights, k)
		if math.Abs(res.Cost-want) > 1e-9 {
			t.Fatalf("%s: %s φ=%v, reference φ=%v", label, e.name, res.Cost, want)
		}
		if sim := reduce.Utilization(tr, loads, res.Blue); math.Abs(sim-res.Cost) > 1e-9 {
			t.Fatalf("%s: %s placement costs %v, reported %v", label, e.name, sim, res.Cost)
		}
		spent := 0
		for v, b := range res.Blue {
			if !b {
				continue
			}
			w := 1
			if weights != nil {
				w = weights[v]
			}
			if w == 0 {
				t.Fatalf("%s: %s colored unavailable switch %d", label, e.name, v)
			}
			spent += w
		}
		if spent > k {
			t.Fatalf("%s: %s spent %d budget units of %d", label, e.name, spent, k)
		}
		if i == 0 {
			first = res
			continue
		}
		if math.Float64bits(res.Cost) != math.Float64bits(first.Cost) {
			t.Fatalf("%s: %s φ=%v, %s φ=%v", label, e.name, res.Cost, engines[0].name, first.Cost)
		}
		for v := range first.Blue {
			if res.Blue[v] != first.Blue[v] {
				t.Fatalf("%s: %s placement differs from %s at switch %d", label, e.name, engines[0].name, v)
			}
		}
	}
}

// TestIncrementalMatchesFullEngines drives the stateful engine through
// randomized update sequences — load deltas, availability flips, batches
// of both — and after every flush cross-checks it against the
// from-scratch entry points on the engine's current inputs.
func TestIncrementalMatchesFullEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(50)
		tr := topology.RandomRecursive(n, rng)
		loads := make([]int, n)
		avail := make([]bool, n)
		for v := 0; v < n; v++ {
			loads[v] = rng.Intn(6)
			avail[v] = rng.Intn(4) != 0 // availability-restricted instances
		}
		k := rng.Intn(6) // includes k = 0
		inc := NewIncremental(tr, loads, avail, k)

		for step := 0; step < 12; step++ {
			// A batch of 1..4 point updates before each check, so flushes
			// see coalesced dirty paths, not single-path updates.
			for b := 1 + rng.Intn(4); b > 0; b-- {
				v := rng.Intn(n)
				if rng.Intn(2) == 0 {
					loads[v] = rng.Intn(6)
					inc.SetLoad(v, loads[v])
				} else {
					avail[v] = !avail[v]
					inc.SetAvail(v, avail[v])
				}
			}
			checkIncremental(t, trial, step, inc, tr, loads, avail, k)
		}

		// Edge case: drive every load to zero through the update path.
		for v := 0; v < n; v++ {
			inc.UpdateLoad(v, -loads[v])
			loads[v] = 0
		}
		checkIncremental(t, trial, -1, inc, tr, loads, avail, k)
	}
}

// checkIncremental requires the stateful engine to agree with the
// from-scratch entry points Solve and SolveMemo on (loads, avail, k),
// and its tables to be bitwise identical to a from-scratch Gather.
func checkIncremental(t *testing.T, trial, step int, inc *Incremental, tr *topology.Tree, loads []int, avail []bool, k int) {
	t.Helper()
	got := inc.Solve()
	for name, ref := range map[string]Result{
		"Solve":     Solve(tr, loads, avail, k),
		"SolveMemo": SolveMemo(NewMemo(tr), loads, avail, k),
	} {
		if math.Abs(got.Cost-ref.Cost) > 1e-9 {
			t.Fatalf("trial %d step %d: incremental φ=%v, %s φ=%v", trial, step, got.Cost, name, ref.Cost)
		}
		for v := range ref.Blue {
			if got.Blue[v] != ref.Blue[v] {
				t.Fatalf("trial %d step %d: incremental placement differs from %s at switch %d", trial, step, name, v)
			}
		}
	}
	if sim := reduce.Utilization(tr, loads, got.Blue); math.Abs(sim-got.Cost) > 1e-9 {
		t.Fatalf("trial %d step %d: incremental placement costs %v, reported %v", trial, step, sim, got.Cost)
	}
	for v, b := range got.Blue {
		if b && !avail[v] {
			t.Fatalf("trial %d step %d: incremental colored unavailable switch %d", trial, step, v)
		}
	}
	full := Gather(tr, loads, avail, k)
	itb := inc.Tables()
	for v := 0; v < tr.N(); v++ {
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

func TestIncrementalPaperExample(t *testing.T) {
	tr, loads := paper.Figure2()
	inc := NewIncremental(tr, loads, nil, 2)
	if res := inc.Solve(); res.Cost != 20 {
		t.Fatalf("incremental φ=%v, want 20", res.Cost)
	}
	// Repeated solves with no pending updates must not drift.
	if res := inc.Solve(); res.Cost != 20 {
		t.Fatalf("second incremental solve φ=%v, want 20", res.Cost)
	}
	if inc.Pending() != 0 {
		t.Fatalf("pending %d after flush, want 0", inc.Pending())
	}
}

func TestIncrementalAllUnavailable(t *testing.T) {
	tr, loads := paper.Figure2()
	inc := NewIncremental(tr, loads, nil, 2)
	for v := 0; v < tr.N(); v++ {
		inc.SetAvail(v, false)
	}
	want := Solve(tr, loads, make([]bool, tr.N()), 2)
	if got := inc.Solve(); got.Cost != want.Cost {
		t.Fatalf("all-unavailable incremental φ=%v, want %v", got.Cost, want.Cost)
	}
	for v := 0; v < tr.N(); v++ {
		inc.SetAvail(v, true)
	}
	if got := inc.Solve(); got.Cost != 20 {
		t.Fatalf("restored incremental φ=%v, want 20", got.Cost)
	}
}

func TestIncrementalSingleNode(t *testing.T) {
	tr := topology.MustNew([]int{topology.NoParent}, []float64{1})
	inc := NewIncremental(tr, []int{3}, nil, 1)
	if got := inc.Cost(); got != 1 { // blue root sends 1 message over (r, d)
		t.Fatalf("single-node φ=%v, want 1", got)
	}
	inc.UpdateLoad(0, -3)
	if got := inc.Cost(); got != 0 {
		t.Fatalf("single-node zero-load φ=%v, want 0", got)
	}
}

func TestIncrementalRejectsNegativeLoad(t *testing.T) {
	tr, loads := paper.Figure2()
	inc := NewIncremental(tr, loads, nil, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateLoad below zero did not panic")
		}
	}()
	inc.UpdateLoad(3, -loads[3]-1)
}

// TestIncrementalRepointKeepsTablesExact re-points one warm engine across
// dense and sparse load vectors of one tree, the way the scheduler's
// pooled engines move between tenants: subtrees go load-free and loaded
// again in recycled storage. After every flush its tables — values,
// colors and every breadcrumb a traceback can read — must match the
// scalar reference Gather bitwise, and the serving path's SolveInto must
// return the reference placement and φ.
func TestIncrementalRepointKeepsTablesExact(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		tr, dense, avail, k := randomInstance(seed, 30, 6, false)
		rng := rand.New(rand.NewSource(seed))
		inc := NewIncremental(tr, dense, avail, k)
		blue := make([]bool, tr.N())
		for step := 0; step < 6; step++ {
			loads := dense
			if step%3 != 2 {
				loads = make([]int, tr.N())
				for v := range loads {
					if rng.Intn(4) == 0 {
						loads[v] = dense[v]
					}
				}
			}
			inc.SetLoads(loads)
			want := gatherScalar(tr, loads, avail, nil, k)
			requireKernelTables(t, seed, fmt.Sprintf("re-point %d", step), tr, inc.Tables(), want)
			wantBlue, wantCost := scalarColorPhase(want)
			if phi := inc.SolveInto(blue); math.Float64bits(phi) != math.Float64bits(wantCost) {
				t.Fatalf("seed %d re-point %d: SolveInto φ=%v, reference φ=%v", seed, step, phi, wantCost)
			}
			for v := range wantBlue {
				if blue[v] != wantBlue[v] {
					t.Fatalf("seed %d re-point %d: SolveInto placement differs at switch %d", seed, step, v)
				}
			}
		}
	}
}
