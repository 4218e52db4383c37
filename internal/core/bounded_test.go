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

// This file certifies the effective-budget clamping (see DESIGN.md): the
// bounded engines must be *bitwise* indistinguishable from the unbounded
// O(n·h·k²) DP this repository shipped before the optimization. To that
// end it carries a verbatim copy of the pre-change engine — full-width
// k+1 tables, unrestricted merge scans — and checks tables, color flags
// and placements cell by cell, plus the invariant the clamping relies on
// (X_v(ℓ, i) constant for i ≥ cap[v]) on the *unbounded* tables.

// refNodeTables is the pre-change nodeTables: rows of width k+1.
type refNodeTables struct {
	x      []float64
	isBlue []bool
	splits [][]int32
}

// refGather is the pre-change serial SOAR-Gather, kept verbatim as the
// bitwise reference for the bounded engines.
func refGather(t *topology.Tree, load []int, avail []bool, k int) []refNodeTables {
	if k < 0 {
		k = 0
	}
	nodes := make([]refNodeTables, t.N())
	subLoad := t.SubtreeLoads(load)
	for _, v := range t.PostOrder() {
		children := make([]*refNodeTables, t.NumChildren(v))
		for i, c := range t.Children(v) {
			children[i] = &nodes[c]
		}
		nodes[v] = refComputeNode(t, v, load[v], subLoad[v] > 0, isAvail(avail, v), k, children)
	}
	return nodes
}

func refComputeNode(t *topology.Tree, v, load int, hasLoad, avail bool, k int, children []*refNodeTables) refNodeTables {
	depth := t.Depth(v)
	stride := k + 1
	nt := refNodeTables{
		x:      make([]float64, (depth+1)*stride),
		isBlue: make([]bool, (depth+1)*stride),
	}
	bsend := 0.0
	if hasLoad {
		bsend = 1.0
	}
	if len(children) == 0 {
		for l := 0; l <= depth; l++ {
			rho := t.RhoUp(v, l)
			red := rho * float64(load)
			blue := rho * bsend
			nt.x[l*stride] = red
			for i := 1; i <= k; i++ {
				idx := l*stride + i
				if avail && blue < red {
					nt.x[idx] = blue
					nt.isBlue[idx] = true
				} else {
					nt.x[idx] = red
				}
			}
		}
		return nt
	}

	nt.splits = make([][]int32, len(children)-1)
	for m := range nt.splits {
		nt.splits[m] = make([]int32, 2*(depth+1)*stride)
	}
	yr := make([]float64, stride)
	yb := make([]float64, stride)
	newYR := make([]float64, stride)
	newYB := make([]float64, stride)
	for l := 0; l <= depth; l++ {
		rho := t.RhoUp(v, l)
		c1 := children[0]
		for i := 0; i <= k; i++ {
			yr[i] = c1.x[(l+1)*stride+i] + rho*float64(load)
			if avail && i >= 1 {
				yb[i] = c1.x[1*stride+(i-1)] + rho*bsend
			} else {
				yb[i] = math.Inf(1)
			}
		}
		for m := 1; m < len(children); m++ {
			cm := children[m]
			xBlue := cm.x[1*stride : 1*stride+stride]
			xRed := cm.x[(l+1)*stride : (l+1)*stride+stride]
			for i := 0; i <= k; i++ {
				bestR, argR := math.Inf(1), 0
				bestB, argB := math.Inf(1), 0
				for j := 0; j <= i; j++ {
					if c := yr[i-j] + xRed[j]; c < bestR {
						bestR, argR = c, j
					}
					if c := yb[i-j] + xBlue[j]; c < bestB {
						bestB, argB = c, j
					}
				}
				newYR[i], newYB[i] = bestR, bestB
				sp := nt.splits[m-1]
				sp[(0*(depth+1)+l)*stride+i] = int32(argR)
				sp[(1*(depth+1)+l)*stride+i] = int32(argB)
			}
			yr, newYR = newYR, yr
			yb, newYB = newYB, yb
		}
		for i := 0; i <= k; i++ {
			idx := l*stride + i
			if yb[i] < yr[i] {
				nt.x[idx] = yb[i]
				nt.isBlue[idx] = true
			} else {
				nt.x[idx] = yr[i]
			}
		}
	}
	return nt
}

// refColorPhase is the pre-change SOAR-Color over full-width tables.
func refColorPhase(t *topology.Tree, nodes []refNodeTables, k int) []bool {
	blue := make([]bool, t.N())
	stride := k + 1
	type frame struct{ v, i, l int }
	stack := []frame{{t.Root(), k, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nt := &nodes[f.v]
		isBlue := nt.isBlue[f.l*stride+f.i]
		blue[f.v] = isBlue
		children := t.Children(f.v)
		if len(children) == 0 {
			continue
		}
		colorIdx, childL := 0, f.l+1
		if isBlue {
			colorIdx, childL = 1, 1
		}
		depth := t.Depth(f.v)
		remaining := f.i
		budgets := make([]int, len(children))
		for m := len(children) - 1; m >= 1; m-- {
			j := int(nt.splits[m-1][(colorIdx*(depth+1)+f.l)*stride+remaining])
			budgets[m] = j
			remaining -= j
		}
		if isBlue {
			remaining--
		}
		budgets[0] = remaining
		for m, c := range children {
			stack = append(stack, frame{c, budgets[m], childL})
		}
	}
	return blue
}

// boundedInstance draws a φ-BIC instance whose k and Λ sweep the corner
// cases the clamping must survive: k = 0, k ≥ n, Λ = everything,
// Λ = nothing, and sparse Λ.
func boundedInstance(rng *rand.Rand) (*topology.Tree, []int, []bool, int) {
	n := 1 + rng.Intn(40)
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
	for v := 0; v < n; v++ {
		loads[v] = rng.Intn(6)
	}
	var avail []bool
	switch rng.Intn(4) {
	case 0: // nil: everything available
	case 1: // nothing available
		avail = make([]bool, n)
	default: // sparse
		avail = make([]bool, n)
		for v := 0; v < n; v++ {
			avail[v] = rng.Intn(3) != 0
		}
	}
	var k int
	switch rng.Intn(4) {
	case 0:
		k = 0
	case 1:
		k = n + rng.Intn(5) // k ≥ n: caps clamp at subtree sizes
	default:
		k = rng.Intn(8)
	}
	return t, loads, avail, k
}

// TestBoundedBitwiseMatchesUnboundedReference is the acceptance check of
// the effective-budget optimization: for every engine, every table cell
// X_v(ℓ, i), every color flag and the final placement must equal the
// pre-change unbounded DP bit for bit — not approximately, exactly.
func TestBoundedBitwiseMatchesUnboundedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 120; trial++ {
		tr, loads, avail, k := boundedInstance(rng)
		ref := refGather(tr, loads, avail, k)
		refBlue := refColorPhase(tr, ref, max(k, 0))

		tb := Gather(tr, loads, avail, k)
		caps := EffectiveCaps(tr, avail, k)
		stride := max(k, 0) + 1
		for v := 0; v < tr.N(); v++ {
			if tb.Cap(v) != caps[v] {
				t.Fatalf("trial %d: Cap(%d) = %d, EffectiveCaps %d", trial, v, tb.Cap(v), caps[v])
			}
			for l := 0; l <= tr.Depth(v); l++ {
				for i := 0; i < stride; i++ {
					if got, want := tb.X(v, l, i), ref[v].x[l*stride+i]; got != want {
						t.Fatalf("trial %d: X_%d(%d,%d) = %v, unbounded %v", trial, v, l, i, got, want)
					}
					if got, want := tb.Blue(v, l, i), ref[v].isBlue[l*stride+i]; got != want {
						t.Fatalf("trial %d: Blue_%d(%d,%d) = %v, unbounded %v", trial, v, l, i, got, want)
					}
				}
			}
		}

		check := func(name string, blue []bool) {
			t.Helper()
			for v := range refBlue {
				if blue[v] != refBlue[v] {
					t.Fatalf("trial %d: %s placement differs from unbounded reference at switch %d", trial, name, v)
				}
			}
		}
		blue, _ := ColorPhase(tb)
		check("serial", blue)
		check("memo", SolveMemo(NewMemo(tr), loads, avail, k).Blue)
		inc := NewIncremental(tr, loads, avail, k)
		check("incremental", inc.Solve().Blue)
	}
}

// TestQuickCapInvariant checks, on the *unbounded* tables, the property
// the clamped storage relies on: X_v(ℓ, i) == X_v(ℓ, cap[v]) for every
// i ≥ cap[v] = min(k, |T_v ∩ Λ|), bitwise, and likewise for the color
// flag. (Checking it on the bounded tables would be a tautology — their
// accessor clamps — so the reference engine supplies full-width rows.)
func TestQuickCapInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, loads, avail, k := boundedInstance(rng)
		if k < 0 {
			k = 0
		}
		caps := EffectiveCaps(tr, avail, k)
		ref := refGather(tr, loads, avail, k)
		stride := k + 1
		for v := 0; v < tr.N(); v++ {
			for l := 0; l <= tr.Depth(v); l++ {
				base := ref[v].x[l*stride+caps[v]]
				baseBlue := ref[v].isBlue[l*stride+caps[v]]
				for i := caps[v]; i <= k; i++ {
					if ref[v].x[l*stride+i] != base || ref[v].isBlue[l*stride+i] != baseBlue {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEffectiveCaps pins down the cap definition against a direct
// subtree count.
func TestQuickEffectiveCaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _, avail, k := boundedInstance(rng)
		if k < 0 {
			k = 0
		}
		caps := EffectiveCaps(tr, avail, k)
		sizes := tr.SubtreeSizes()
		for v := 0; v < tr.N(); v++ {
			cnt := 0
			for u := 0; u < tr.N(); u++ {
				if isAvail(avail, u) && inSubtree(tr, v, u) {
					cnt++
				}
			}
			if caps[v] != min(k, cnt) {
				return false
			}
			if caps[v] > sizes[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func inSubtree(t *topology.Tree, root, v int) bool {
	for {
		if v == root {
			return true
		}
		if v == t.Root() {
			return false
		}
		v = t.Parent(v)
	}
}

// TestEnginesMatchBruteForce certifies every bounded engine against an
// exhaustive subset enumeration on small instances: the DP cost must
// equal the true optimum, and each returned placement must achieve it.
func TestEnginesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	bf := placement.BruteForce{}
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(10)
		tr := topology.RandomRecursive(n, rng)
		loads := make([]int, n)
		avail := make([]bool, n)
		for v := 0; v < n; v++ {
			loads[v] = rng.Intn(5)
			avail[v] = rng.Intn(4) != 0
		}
		k := rng.Intn(n + 2) // includes k = 0 and k > n
		_, want := bf.Search(tr, loads, avail, k)

		inc := NewIncremental(tr, loads, avail, k)
		for name, res := range map[string]Result{
			"serial":      Solve(tr, loads, avail, k),
			"memo":        SolveMemo(NewMemo(tr), loads, avail, k),
			"incremental": inc.Solve(),
		} {
			if math.Abs(res.Cost-want) > 1e-9 {
				t.Fatalf("trial %d (n=%d k=%d): %s φ=%v, brute force φ=%v", trial, n, k, name, res.Cost, want)
			}
			if sim := reduce.Utilization(tr, loads, res.Blue); math.Abs(sim-res.Cost) > 1e-9 {
				t.Fatalf("trial %d: %s placement costs %v, reported %v", trial, name, sim, res.Cost)
			}
		}
	}
}
