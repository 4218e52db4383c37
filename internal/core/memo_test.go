package core

import (
	"math/rand"
	"testing"

	"soar/internal/load"
	"soar/internal/topology"
)

// requireTablesBitwise fails unless got's tables match want's exactly —
// every X cell, every color flag, over every (v, ℓ ≤ Depth(v), i ≤ k).
// The memoized engines alias class tables, so "close enough" is not the
// contract: aliasing is only sound when the values are identical.
func requireTablesBitwise(t *testing.T, label string, tr *topology.Tree, got, want *Tables, k int) {
	t.Helper()
	for v := 0; v < tr.N(); v++ {
		for l := 0; l <= tr.Depth(v); l++ {
			for i := 0; i <= k; i++ {
				if got.X(v, l, i) != want.X(v, l, i) {
					t.Fatalf("%s: X_%d(%d,%d) = %v, want %v", label, v, l, i, got.X(v, l, i), want.X(v, l, i))
				}
				if got.Blue(v, l, i) != want.Blue(v, l, i) {
					t.Fatalf("%s: Blue_%d(%d,%d) = %v, want %v", label, v, l, i, got.Blue(v, l, i), want.Blue(v, l, i))
				}
			}
		}
	}
}

// requirePlacementBitwise fails unless both engines pick the identical
// blue set at the identical cost.
func requirePlacementBitwise(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: φ=%v, want %v", label, got.Cost, want.Cost)
	}
	for v := range want.Blue {
		if got.Blue[v] != want.Blue[v] {
			t.Fatalf("%s: placement differs at switch %d", label, v)
		}
	}
}

// TestMemoMatchesGatherRandom drives the memoized engine over
// randomized instances, cold and warm, and requires bitwise-identical
// tables and placements against the plain engine.
func TestMemoMatchesGatherRandom(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		tr, loads, avail, k := randomInstance(int64(1000+trial), 40, 8, false)
		want := Gather(tr, loads, avail, k)
		wantRes := Solve(tr, loads, avail, k)
		m := NewMemo(tr)
		for rep := 0; rep < 2; rep++ { // rep 0 cold, rep 1 warm
			tbm := GatherMemo(m, loads, avail, k)
			requireTablesBitwise(t, "memo", tr, tbm, want, k)
			blue, cost := ColorPhase(tbm)
			requirePlacementBitwise(t, "memo color", Result{Blue: blue, Cost: cost}, wantRes)
		}
	}
}

// TestMemoCapsMatchesGatherCaps is the capacity-vector counterpart.
func TestMemoCapsMatchesGatherCaps(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		tr, loads, _, k := randomInstance(int64(2000+trial), 35, 8, false)
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		caps := make([]int, tr.N())
		for v := range caps {
			caps[v] = rng.Intn(4) // includes 0 = unavailable
		}
		want := GatherCaps(tr, loads, caps, k)
		wantRes := SolveCaps(tr, loads, caps, k)
		m := NewMemo(tr)
		for rep := 0; rep < 2; rep++ {
			tbm := m.gather(loads, nil, caps, k) // the tables behind SolveMemoCaps
			requireTablesBitwise(t, "memo caps", tr, tbm, want, k)
			requirePlacementBitwise(t, "memo caps solve", SolveMemoCaps(m, loads, caps, k), wantRes)
		}
	}
}

// TestMemoClassCollapse pins the headline collapse: on a complete binary
// tree with identical leaf loads every level is one equivalence class,
// so the memo computes exactly levels tables for the whole solve.
func TestMemoClassCollapse(t *testing.T) {
	tr := topology.MustBT(256) // 255 switches, 8 levels
	loads := make([]int, tr.N())
	for _, v := range tr.Leaves() {
		loads[v] = 5
	}
	m := NewMemo(tr)
	tbm := GatherMemo(m, loads, nil, 16)
	st := m.Stats()
	if st.Classes != 8 {
		t.Fatalf("BT(256) uniform load interned %d classes, want 8 (one per level)", st.Classes)
	}
	if st.Misses != 8 {
		t.Fatalf("%d misses, want 8", st.Misses)
	}
	requireTablesBitwise(t, "collapse", tr, tbm, Gather(tr, loads, nil, 16), 16)

	// Warm solve: zero new classes, zero new misses.
	GatherMemo(m, loads, nil, 16)
	if st2 := m.Stats(); st2.Misses != st.Misses {
		t.Fatalf("warm solve missed %d times", st2.Misses-st.Misses)
	}
}

// TestMemoZeroLoadSharing verifies the sparse fast path: every zero-load
// subtree's table is served from the single shared all-zero slab.
func TestMemoZeroLoadSharing(t *testing.T) {
	tr := topology.MustBT(64) // 63 switches
	loads := make([]int, tr.N())
	leaves := tr.Leaves()
	loads[leaves[0]] = 7 // exactly one loaded leaf; most subtrees are empty
	m := NewMemo(tr)

	subLoad := tr.SubtreeLoads(loads)
	tb := GatherMemo(m, loads, nil, 4)
	base := &m.zeroX[0]
	zeros := 0
	for v := 0; v < tr.N(); v++ {
		if subLoad[v] != 0 {
			continue
		}
		zeros++
		if &tb.nodes[v].x[0] != base {
			t.Fatalf("zero-load switch %d does not alias the shared zero slab", v)
		}
		if tb.nodes[v].splits != nil && &tb.nodes[v].splits[0][0] != &m.zeroSplits[0] {
			t.Fatalf("zero-load switch %d has private split storage", v)
		}
	}
	if zeros == 0 {
		t.Fatal("instance has no zero-load subtrees; test is vacuous")
	}

	// And the sparse instance still solves bitwise-identically.
	requireTablesBitwise(t, "sparse", tr, tb, Gather(tr, loads, nil, 4), 4)
}

// TestMemoEvictionKeepsCorrectness forces an eviction on every solve
// (1-byte budget) and checks the tables survive the epoch changes
// bitwise.
func TestMemoEvictionKeepsCorrectness(t *testing.T) {
	tr, loads, avail, k := randomInstance(42, 30, 6, false)
	m := NewMemo(tr)
	m.SetBudget(1)
	want := Gather(tr, loads, avail, k)
	for rep := 0; rep < 3; rep++ {
		requireTablesBitwise(t, "evicting memo", tr, GatherMemo(m, loads, avail, k), want, k)
	}
	if m.Stats().Epoch == 0 {
		t.Fatal("budget of 1 byte never triggered an eviction")
	}
}

// TestMemoAcrossBudgets shares one memo across solves with different k:
// the class tuples carry the effective budgets, so cross-k reuse is
// sound — and observable where the clamp makes tables k-independent.
func TestMemoAcrossBudgets(t *testing.T) {
	tr, loads, avail, _ := randomInstance(99, 30, 0, false)
	m := NewMemo(tr)
	for _, k := range []int{0, 3, 7, 3, 30} {
		requireTablesBitwise(t, "cross-k", tr, GatherMemo(m, loads, avail, k), Gather(tr, loads, avail, k), k)
	}
	st := m.Stats()
	if st.Hits == 0 {
		t.Fatal("re-solving at a previously seen budget produced no cache hits")
	}
}

// TestGatherMemoWarmAllocs bounds the warm-path allocations: a fully
// warm solve allocates only the per-solve bookkeeping (the Tables
// wrapper, the node alias array, class ids, subtree loads, caps), never
// per-switch table storage.
func TestGatherMemoWarmAllocs(t *testing.T) {
	tr := topology.MustBT(256)
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rand.New(rand.NewSource(3)))
	m := NewMemo(tr)
	GatherMemo(m, loads, nil, 16) // warm
	allocs := testing.AllocsPerRun(10, func() {
		GatherMemo(m, loads, nil, 16)
	})
	if allocs > 8 {
		t.Fatalf("warm GatherMemo allocates %v objects per solve, want ≤ 8 (O(1) bookkeeping)", allocs)
	}
}
