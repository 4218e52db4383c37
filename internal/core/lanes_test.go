package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"soar/internal/topology"
)

// flushSplit flushes inc the way the scheduler's dispatcher does: Lanes
// cuts the pending flush, one goroutine per lane runs FlushLane, and
// Flush recomputes the switches above the cut. It returns the lane
// count (0: the flush ran serially).
func flushSplit(inc *Incremental, lanes int) int {
	m := inc.Lanes(lanes)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inc.FlushLane(i)
		}()
	}
	wg.Wait()
	inc.Flush()
	return m
}

// requireSameTables fails unless got and want hold bitwise-identical
// DP state: caps, capacity weights, every value, color flag and
// breadcrumb of every switch.
func requireSameTables(t *testing.T, label string, got, want *Tables) {
	t.Helper()
	for v := range want.nodes {
		g, w := &got.nodes[v], &want.nodes[v]
		if g.cap != w.cap || g.capw != w.capw || len(g.x) != len(w.x) || len(g.splits) != len(w.splits) {
			t.Fatalf("%s: switch %d shape (cap %d, capw %d, %d cells, %d merges), want (%d, %d, %d, %d)",
				label, v, g.cap, g.capw, len(g.x), len(g.splits), w.cap, w.capw, len(w.x), len(w.splits))
		}
		for i := range w.x {
			if math.Float64bits(g.x[i]) != math.Float64bits(w.x[i]) || g.isBlue[i] != w.isBlue[i] {
				t.Fatalf("%s: switch %d cell %d: (%v,%v), want (%v,%v)", label, v, i, g.x[i], g.isBlue[i], w.x[i], w.isBlue[i])
			}
		}
		for m := range w.splits {
			for i := range w.splits[m] {
				if g.splits[m][i] != w.splits[m][i] {
					t.Fatalf("%s: switch %d merge %d breadcrumb %d: %d, want %d", label, v, m, i, g.splits[m][i], w.splits[m][i])
				}
			}
		}
	}
}

// oneChildRoot is a root whose only child roots a complete binary tree
// of n-1 switches: no depth-1 cut exists, so every split cuts deeper.
func oneChildRoot(n int) *topology.Tree {
	parent := make([]int, n)
	omega := make([]float64, n)
	parent[0] = topology.NoParent
	for v := range omega {
		omega[v] = []float64{1, 2, 0.5}[v%3]
		if v >= 1 {
			parent[v] = (v-2)/2 + 1
		}
	}
	parent[1] = 0
	return topology.MustNew(parent, omega)
}

// TestIncrementalLanesMatchSerial runs every flush of a re-pointed
// engine twice — serially, and split into 1 to 4 or 8 lanes run on
// their own goroutines — and holds the split engine to the serial one and to a
// from-scratch GatherCaps: tables, breadcrumbs, φ and the SolveInto
// placement bitwise equal, and Recomputed the same count. The shapes
// cover a cut at the root's children (BT, fat-tree, a wide root, a
// scale-free tree), a cut below a root with one child, and BT with 3, 4
// and 8 lanes, which cut at depths 2 and 3 (8 lanes is the scheduler's
// split on two cores). Instances are dense (every leaf
// loaded), sparse (a few racks: split only when re-pointed from a dense
// tenant, which dirties most switches) and capacity vectors, and
// one step raises every capacity so the merge scratch regrows between
// two splits.
func TestIncrementalLanesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	fat, _ := topology.FatTreeAggregation(8)
	shapes := []struct {
		name string
		tr   *topology.Tree
	}{
		{"bt", topology.MustBT(128)},
		{"scale-free", topology.ScaleFree(150, rng)},
		{"fat-tree", fat},
		{"one-child-root", oneChildRoot(64)},
		{"wide-root", topology.MultiLevel([]int{9, 3})},
	}
	splits, cutBelow, serial := 0, 0, 0
	for _, sh := range shapes {
		tr := sh.tr
		n := tr.N()
		for _, lanes := range []int{1, 2, 3, 4, 8} {
			for _, model := range []string{"uniform", "caps"} {
				label := fmt.Sprintf("%s/lanes=%d/%s", sh.name, lanes, model)
				caps := make([]int, n)
				for v := range caps {
					caps[v] = 1
					if model == "caps" {
						caps[v] = rng.Intn(3) // forwarders (0) and two-unit switches
					}
				}
				k := 2 + rng.Intn(6)
				ser := NewIncrementalCaps(tr, make([]int, n), caps, k)
				par := NewIncrementalCaps(tr, make([]int, n), caps, k)
				sBlue, pBlue := make([]bool, n), make([]bool, n)
				for step := 0; step < 7; step++ {
					loads := make([]int, n)
					if step%3 == 2 || step == 6 {
						// Sparse: three racks. Re-pointed from a dense
						// tenant it still dirties most switches; from the
						// sparse one of step 5 it dirties few.
						for r := 0; r < 3; r++ {
							loads[tr.Leaves()[rng.Intn(len(tr.Leaves()))]] = 1 + rng.Intn(9)
						}
					} else {
						for _, v := range tr.Leaves() {
							loads[v] = 1 + rng.Intn(9)
						}
					}
					if step == 4 {
						// Split once with every capacity 0 (root cap 0, the
						// narrowest scratch), then raise every capacity: the
						// next split must regrow the engine's and every
						// lane's scratch.
						k += 3
						zero := make([]int, n)
						ser = NewIncrementalCaps(tr, zero, zero, k)
						par = NewIncrementalCaps(tr, zero, zero, k)
						ser.SetLoads(loads)
						ser.Flush()
						par.SetLoads(loads)
						flushSplit(par, lanes)
						for v := range caps {
							caps[v] = 1 + rng.Intn(2)
							ser.SetCap(v, caps[v])
							par.SetCap(v, caps[v])
						}
					}
					ser.SetLoads(loads)
					par.SetLoads(loads)
					pending := par.Pending()
					ser.Flush()
					m := flushSplit(par, lanes)
					dense := 2*pending >= n
					switch {
					case lanes == 1 || !dense:
						if m != 0 {
							t.Fatalf("%s step %d: %d dirty of %d split into %d lanes, want a serial flush", label, step, pending, n, m)
						}
						if !dense {
							serial++
						}
					case m != lanes:
						t.Fatalf("%s step %d: dense flush split into %d lanes, want %d", label, step, m, lanes)
					default:
						splits++
						if q := par.lanes[0].q; tr.Depth(q[len(q)-1]) >= 2 {
							cutBelow++ // the lane's last switch is a cut root
						}
					}
					if ser.Recomputed() != par.Recomputed() {
						t.Fatalf("%s step %d: split flush recomputed %d, serial %d", label, step, par.Recomputed(), ser.Recomputed())
					}
					at := fmt.Sprintf("%s step %d", label, step)
					requireSameTables(t, at+" split vs serial", par.Tables(), ser.Tables())
					requireSameTables(t, at+" split vs Gather", par.Tables(), GatherCaps(tr, loads, caps, k))
					sPhi, pPhi := ser.SolveInto(sBlue), par.SolveInto(pBlue)
					if math.Float64bits(sPhi) != math.Float64bits(pPhi) {
						t.Fatalf("%s: split φ=%v, serial φ=%v", at, pPhi, sPhi)
					}
					ref := SolveCaps(tr, loads, caps, k)
					if math.Float64bits(ref.Cost) != math.Float64bits(pPhi) {
						t.Fatalf("%s: split φ=%v, SolveCaps φ=%v", at, pPhi, ref.Cost)
					}
					for v := range pBlue {
						if pBlue[v] != sBlue[v] || pBlue[v] != ref.Blue[v] {
							t.Fatalf("%s: placement differs at switch %d", at, v)
						}
					}
				}
			}
		}
	}
	if splits == 0 || cutBelow == 0 || serial == 0 {
		t.Fatalf("%d split flushes, %d cut below the root's children, %d sparse flushes; the test needs all three", splits, cutBelow, serial)
	}
}

// TestIncrementalLanesLeaveSparseSerial: a flush that dirties fewer than
// half of the switches — one tenant's few racks — is never split, and
// neither is a path, which has no depth with two switches.
func TestIncrementalLanesLeaveSparseSerial(t *testing.T) {
	tr := topology.MustBT(256)
	inc := NewIncremental(tr, make([]int, tr.N()), nil, 8)
	inc.UpdateLoad(tr.Leaves()[3], 5)
	inc.UpdateLoad(tr.Leaves()[90], 2)
	if m := inc.Lanes(4); m != 0 {
		t.Fatalf("sparse flush of %d switches split into %d lanes", inc.Pending(), m)
	}
	inc.Flush()
	path := topology.Path(40)
	pinc := NewIncremental(path, make([]int, path.N()), nil, 3)
	pinc.SetLoad(path.N()-1, 7)
	if m := pinc.Lanes(2); m != 0 {
		t.Fatalf("a path split into %d lanes", m)
	}
	pinc.Flush()
	if got, want := pinc.Cost(), Solve(path, pinc.Loads(), nil, 3).Cost; got != want {
		t.Fatalf("path φ=%v after a refused split, want %v", got, want)
	}
}
