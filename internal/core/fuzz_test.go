package core

import (
	"math"
	"testing"

	"soar/internal/reduce"
)

// FuzzSolveMatchesReference drives the table engine against the
// independent recursive reference on fuzzer-chosen instances. Run the
// corpus as a normal test with `go test`, or explore with
// `go test -fuzz FuzzSolveMatchesReference ./internal/core`.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		tr, loads, avail, k := randomInstance(seed, 25, 6)
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
		memo := SolveMemo(NewMemo(tr), loads, avail, k)
		inc := NewIncremental(tr, loads, avail, k).Solve()
		if memo.Cost != res.Cost || inc.Cost != res.Cost {
			t.Fatalf("seed %d: memo φ=%v, incremental φ=%v, serial φ=%v", seed, memo.Cost, inc.Cost, res.Cost)
		}
		for v := range res.Blue {
			if memo.Blue[v] != res.Blue[v] {
				t.Fatalf("seed %d: memo placement differs at switch %d", seed, v)
			}
			if inc.Blue[v] != res.Blue[v] {
				t.Fatalf("seed %d: incremental placement differs at switch %d", seed, v)
			}
		}
	})
}
