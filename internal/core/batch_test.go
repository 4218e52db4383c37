package core

import (
	"math/rand"
	"testing"

	"soar/internal/topology"
)

// randomBatch builds one tree plus a batch of sparse load vectors
// sharing an availability set and budget. Some instances are fully
// zero (the all-red edge case), some load a single switch, the rest
// load a few random switches.
func randomBatch(seed int64, maxN, maxB, maxK int) (*topology.Tree, [][]int, []bool, int) {
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
	avail := make([]bool, n)
	for v := range avail {
		avail[v] = rng.Intn(5) != 0
	}
	B := 1 + rng.Intn(maxB)
	loads := make([][]int, B)
	for b := range loads {
		loads[b] = make([]int, n)
		switch rng.Intn(4) {
		case 0: // all-zero instance
		case 1: // one loaded switch
			loads[b][rng.Intn(n)] = 1 + rng.Intn(8)
		default: // sparse
			for j := 0; j < 1+rng.Intn(4); j++ {
				loads[b][rng.Intn(n)] = rng.Intn(6)
			}
		}
	}
	return t, loads, avail, rng.Intn(maxK + 1)
}

// solveBatch runs one batch through a fresh BatchSolver over m with
// freshly allocated output buffers.
func solveBatch(m *Memo, loads [][]int, avail []bool, k int) []Result {
	out := make([]Result, len(loads))
	blue := make([][]bool, len(loads))
	costs := make([]float64, len(loads))
	for b := range blue {
		blue[b] = make([]bool, m.t.N())
	}
	NewBatchSolver(m).Solve(loads, avail, k, blue, costs)
	for b := range out {
		out[b] = Result{Blue: blue[b], Cost: costs[b]}
	}
	return out
}

// TestSolveBatchAgreesWithSolve is the batch solver's bitwise-identity
// gate: for every instance of every batch, cost and placement must be
// exactly what the plain per-instance engine produces — not close, equal.
func TestSolveBatchAgreesWithSolve(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		tr, loads, avail, k := randomBatch(seed, 40, 8, 6)
		m := NewMemo(tr)
		got := solveBatch(m, loads, avail, k)
		for b := range loads {
			want := Solve(tr, loads[b], avail, k)
			if got[b].Cost != want.Cost {
				t.Fatalf("seed %d instance %d: batch cost %v, solve cost %v", seed, b, got[b].Cost, want.Cost)
			}
			for v := range want.Blue {
				if got[b].Blue[v] != want.Blue[v] {
					t.Fatalf("seed %d instance %d: blue[%d] = %v, want %v", seed, b, v, got[b].Blue[v], want.Blue[v])
				}
			}
		}
	}
}

// TestBatchSolverReuse re-solves varying batches on one BatchSolver —
// including shrinking and growing batch sizes and a warm second pass
// over the same batch — and checks agreement every time. This is the
// path the scheduler drives.
func TestBatchSolverReuse(t *testing.T) {
	tr, loads, avail, k := randomBatch(7, 60, 10, 8)
	m := NewMemo(tr)
	bs := NewBatchSolver(m)
	n := tr.N()
	check := func(batch [][]int) {
		t.Helper()
		blue := make([][]bool, len(batch))
		costs := make([]float64, len(batch))
		for b := range blue {
			blue[b] = make([]bool, n)
		}
		bs.Solve(batch, avail, k, blue, costs)
		for b := range batch {
			want := Solve(tr, batch[b], avail, k)
			if costs[b] != want.Cost {
				t.Fatalf("instance %d: cost %v, want %v", b, costs[b], want.Cost)
			}
			for v := range want.Blue {
				if blue[b][v] != want.Blue[v] {
					t.Fatalf("instance %d: blue[%d] = %v, want %v", b, v, blue[b][v], want.Blue[v])
				}
			}
		}
	}
	check(loads)
	check(loads) // warm: every class hits
	check(loads[:1])
	check(append(loads, loads...)) // larger batch than ever seen
	bs.Solve(nil, avail, k, nil, nil)
}

// TestSolveBatchSharesMemo checks both directions of cache sharing: a
// batch warms the memo for single solves, and single solves warm it for
// batches, with results identical throughout.
func TestSolveBatchSharesMemo(t *testing.T) {
	tr, loads, avail, k := randomBatch(11, 50, 6, 5)
	m := NewMemo(tr)
	for b := range loads {
		SolveMemo(m, loads[b], avail, k) // warm via single solves
	}
	statsBefore := m.Stats()
	got := solveBatch(m, loads, avail, k)
	for b := range loads {
		want := SolveMemo(m, loads[b], avail, k)
		if got[b].Cost != want.Cost {
			t.Fatalf("instance %d: batch cost %v, memo cost %v", b, got[b].Cost, want.Cost)
		}
	}
	if s := m.Stats(); s.Classes != statsBefore.Classes {
		t.Fatalf("batch over warmed memo interned %d new classes", s.Classes-statsBefore.Classes)
	}
}

// TestBatchSolverSteadyStateAllocs pins the batch solver's steady-state
// contract: with warm memo and caller-owned output buffers, a batch
// solve allocates nothing.
func TestBatchSolverSteadyStateAllocs(t *testing.T) {
	tr := topology.MustBT(256)
	rng := rand.New(rand.NewSource(3))
	leaves := tr.Leaves()
	const B = 16
	loads := make([][]int, B)
	for b := range loads {
		loads[b] = make([]int, tr.N())
		for j := 0; j < 4; j++ {
			loads[b][leaves[rng.Intn(len(leaves))]] = 1 + rng.Intn(8)
		}
	}
	const k = 8
	m := NewMemo(tr)
	bs := NewBatchSolver(m)
	blue := make([][]bool, B)
	costs := make([]float64, B)
	for b := range blue {
		blue[b] = make([]bool, tr.N())
	}
	bs.Solve(loads, nil, k, blue, costs) // warm classes and scratch
	allocs := testing.AllocsPerRun(10, func() {
		bs.Solve(loads, nil, k, blue, costs)
	})
	if allocs != 0 {
		t.Fatalf("warm batch solve allocates %v objects/op, want 0", allocs)
	}
}

// TestSolveBatchValidates pins the input validation contract.
func TestSolveBatchValidates(t *testing.T) {
	tr := topology.MustBT(8)
	m := NewMemo(tr)
	bs := NewBatchSolver(m)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	good := make([]int, tr.N())
	mustPanic("short load", func() {
		bs.Solve([][]int{{1}}, nil, 2, [][]bool{make([]bool, tr.N())}, []float64{0})
	})
	mustPanic("negative load", func() {
		bad := make([]int, tr.N())
		bad[0] = -1
		bs.Solve([][]int{bad}, nil, 2, [][]bool{make([]bool, tr.N())}, []float64{0})
	})
	mustPanic("short blue", func() {
		bs.Solve([][]int{good}, nil, 2, [][]bool{make([]bool, 1)}, []float64{0})
	})
	mustPanic("mismatched outputs", func() {
		bs.Solve([][]int{good}, nil, 2, nil, []float64{0})
	})
}
