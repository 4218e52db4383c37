package core

import (
	"math"
	"testing"

	"soar/internal/reduce"
)

// FuzzSolveMatchesReference drives the table engine against the
// independent recursive reference on fuzzer-chosen instances, each in
// its dense and its sparse form (randomInstance). Run the corpus as a
// normal test with `go test`, or explore with
// `go test -fuzz FuzzSolveMatchesReference ./internal/core`.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		tr, dense, avail, k := randomInstance(seed, 25, 6, false)
		_, sparse, _, _ := randomInstance(seed, 25, 6, true)
		// warm is re-pointed dense → sparse → dense, the way the
		// scheduler's pooled engines move between tenants: its tables go
		// load-free and back through the serving path's SolveInto.
		warm := NewIncremental(tr, dense, avail, k)
		blue := make([]bool, tr.N())
		for _, loads := range [][]int{dense, sparse, dense} {
			res := Solve(tr, loads, avail, k)
			want := referenceCost(tr, loads, avail, k)
			if math.Abs(res.Cost-want) > 1e-9 {
				t.Fatalf("seed %d: Solve φ=%v, reference φ=%v", seed, res.Cost, want)
			}
			if sim := reduce.Utilization(tr, loads, res.Blue); math.Abs(sim-res.Cost) > 1e-9 {
				t.Fatalf("seed %d: reported φ=%v but placement costs %v", seed, res.Cost, sim)
			}
			if got := reduce.CountBlue(res.Blue); got > k {
				t.Fatalf("seed %d: %d blue switches exceed k=%d", seed, got, k)
			}
			// The other engines share tables and tie-breaking with the
			// serial DP, so placements must match bitwise, not just in cost.
			warm.SetLoads(loads)
			phi := warm.SolveInto(blue)
			engines := map[string]Result{
				"memo":             SolveMemo(NewMemo(tr), loads, avail, k),
				"incremental":      NewIncremental(tr, loads, avail, k).Solve(),
				"warm incremental": {Blue: blue, Cost: phi},
				"cold SolveInto":   solveInto(NewIncremental(tr, loads, avail, k)),
			}
			for name, got := range engines {
				if math.Float64bits(got.Cost) != math.Float64bits(res.Cost) {
					t.Fatalf("seed %d: %s φ=%v, serial φ=%v", seed, name, got.Cost, res.Cost)
				}
				for v := range res.Blue {
					if got.Blue[v] != res.Blue[v] {
						t.Fatalf("seed %d: %s placement differs at switch %d", seed, name, v)
					}
				}
			}
		}
	})
}

// solveInto runs the serving path's color pass (Incremental.SolveInto,
// which skips load-free subtrees) into a fresh blue set.
func solveInto(inc *Incremental) Result {
	blue := make([]bool, inc.Tree().N())
	cost := inc.SolveInto(blue)
	return Result{Blue: blue, Cost: cost}
}
