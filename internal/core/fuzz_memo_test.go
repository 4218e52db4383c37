package core

import (
	"math/rand"
	"testing"
)

// FuzzMemoMatchesGather drives the memoized engine against plain
// Gather on fuzzer-chosen instances: random trees with random rates,
// sparse and dense loads, restricted availability, capacity vectors and
// a stream of changing inputs over one cache. The contract is bitwise equality — tables, color
// flags and placements — cold and warm, which is exactly what makes
// class-table aliasing sound. Run the corpus with `go test`, or explore
// with `go test -fuzz FuzzMemoMatchesGather ./internal/core`.
func FuzzMemoMatchesGather(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-3))
	f.Add(int64(1 << 33))
	f.Fuzz(func(t *testing.T, seed int64) {
		tr, loads, avail, k := randomInstance(seed, 25, 6, false)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		if rng.Intn(2) == 0 {
			// Sparsify: the zero-load fast path is the dominant regime of
			// the scheduler's tenants; make sure the fuzzer visits it.
			for v := range loads {
				if rng.Intn(3) != 0 {
					loads[v] = 0
				}
			}
		}
		checkCell := func(name string, got, want *Tables) {
			for v := 0; v < tr.N(); v++ {
				for l := 0; l <= tr.Depth(v); l++ {
					for i := 0; i <= k; i++ {
						if got.X(v, l, i) != want.X(v, l, i) || got.Blue(v, l, i) != want.Blue(v, l, i) {
							t.Fatalf("seed %d: %s table differs at X_%d(%d,%d)", seed, name, v, l, i)
						}
					}
				}
			}
		}
		checkBlue := func(name string, got, want Result) {
			if got.Cost != want.Cost {
				t.Fatalf("seed %d: %s φ=%v, want %v", seed, name, got.Cost, want.Cost)
			}
			for v := range want.Blue {
				if got.Blue[v] != want.Blue[v] {
					t.Fatalf("seed %d: %s placement differs at switch %d", seed, name, v)
				}
			}
		}

		want := Gather(tr, loads, avail, k)
		wantRes := Solve(tr, loads, avail, k)
		m := NewMemo(tr)
		for rep := 0; rep < 2; rep++ { // cold, then warm
			checkCell("memo", GatherMemo(m, loads, avail, k), want)
			checkBlue("memo", SolveMemo(m, loads, avail, k), wantRes)
		}

		// Capacity vectors share the same memo.
		caps := make([]int, tr.N())
		for v := range caps {
			caps[v] = rng.Intn(4)
		}
		checkCell("memo caps", m.gather(loads, nil, caps, k), GatherCaps(tr, loads, caps, k))
		checkBlue("memo caps", SolveMemoCaps(m, loads, caps, k), SolveCaps(tr, loads, caps, k))

		// A short update stream re-solved through the same, now warm, memo.
		cur := append([]int(nil), loads...)
		curAvail := append([]bool(nil), avail...)
		for step := 0; step < 4; step++ {
			v := rng.Intn(tr.N())
			if rng.Intn(2) == 0 {
				cur[v] = rng.Intn(5)
			} else {
				curAvail[v] = !curAvail[v]
			}
			checkBlue("warm memo", SolveMemo(m, cur, curAvail, k), Solve(tr, cur, curAvail, k))
			checkCell("warm memo", GatherMemo(m, cur, curAvail, k), Gather(tr, cur, curAvail, k))
		}
	})
}
