package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"soar/internal/topology"
)

// scalarScratch is the four-row merge scratch of the two-track reference:
// a running and a next Y row per color of v.
type scalarScratch struct {
	yr, yb, newYR, newYB []float64
}

func newScalarScratch(maxCap int) *scalarScratch {
	w := maxCap + 1
	return &scalarScratch{
		yr:    make([]float64, w),
		yb:    make([]float64, w),
		newYR: make([]float64, w),
		newYB: make([]float64, w),
	}
}

// scalarComputeNode is the paper-form SOAR-Gather step kept verbatim as
// an executable reference: both color tracks of v are folded per ℓ (paper
// Alg. 3 runs the child merges once for a red v and once for a blue v),
// every (min,+) merge by the naive i-outer, branch-per-candidate scan
// (mergeScalar). Its breadcrumbs use the two-track layout — color (0 red,
// 1 blue) major, then ℓ, then i — read back through scalarSplit.
// computeNode, which folds the red track only and derives the blue one
// from red row 0, must reproduce it bitwise: values, color flags and the
// split answer at every (color, ℓ, i) a traceback can ask for.
func scalarComputeNode(t *topology.Tree, v, load int, hasLoad bool, capw int, nt *nodeTables, children []*nodeTables, sc *scalarScratch) {
	depth := t.Depth(v)
	capv := nt.cap
	nt.capw = capw
	w := capv + 1
	bsend := 0.0
	if hasLoad {
		bsend = 1.0
	}
	blueOK := capw >= 1 && capw <= capv
	if len(children) == 0 {
		for l := 0; l <= depth; l++ {
			rho := t.RhoUp(v, l)
			red := rho * float64(load)
			for i := 0; i <= capv; i++ {
				idx := l*w + i
				nt.x[idx] = red
				nt.isBlue[idx] = false
			}
			if blueOK {
				idx := l*w + capw
				if blue := rho * bsend; blue < red {
					nt.x[idx] = blue
					nt.isBlue[idx] = true
				}
			}
		}
		return
	}
	recordSplits := nt.splits != nil
	yr := sc.yr[:w]
	yb := sc.yb[:w]
	newYR := sc.newYR[:w]
	newYB := sc.newYB[:w]
	for l := 0; l <= depth; l++ {
		rho := t.RhoUp(v, l)
		c1 := children[0]
		w1 := c1.cap + 1
		redRow := c1.x[(l+1)*w1:]
		redBase := rho * float64(load)
		capR := min(capv, c1.cap)
		for i := 0; i <= capR; i++ {
			yr[i] = redRow[i] + redBase
		}
		for i := capR + 1; i <= capv; i++ {
			yr[i] = yr[capR]
		}
		capB := 0
		if blueOK {
			blueRow := c1.x[1*w1:]
			blueBase := rho * bsend
			capB = min(capv, c1.cap+capw)
			for i := 0; i < capw; i++ {
				yb[i] = math.Inf(1)
			}
			for i := capw; i <= capB; i++ {
				yb[i] = blueRow[i-capw] + blueBase
			}
			for i := capB + 1; i <= capv; i++ {
				yb[i] = yb[capB]
			}
		} else {
			for i := 0; i <= capv; i++ {
				yb[i] = math.Inf(1)
			}
		}
		for m := 1; m < len(children); m++ {
			cm := children[m]
			wcm := cm.cap + 1
			xBlue := cm.x[1*wcm : 1*wcm+wcm]
			xRed := cm.x[(l+1)*wcm : (l+1)*wcm+wcm]
			var spRed, spBlue []int32
			if recordSplits {
				sp := nt.splits[m-1]
				spRed = sp[(0*(depth+1)+l)*w:]
				spBlue = sp[(1*(depth+1)+l)*w:]
			}
			newCapR := min(capv, capR+cm.cap)
			mergeScalar(newYR, spRed, yr, xRed, 0, newCapR, cm.cap)
			for i := newCapR + 1; i <= capv; i++ {
				newYR[i] = newYR[newCapR]
				if recordSplits {
					spRed[i] = spRed[newCapR]
				}
			}
			yr, newYR = newYR, yr
			capR = newCapR
			if blueOK {
				newCapB := min(capv, capB+cm.cap)
				mergeScalar(newYB, spBlue, yb, xBlue, 0, newCapB, cm.cap)
				for i := newCapB + 1; i <= capv; i++ {
					newYB[i] = newYB[newCapB]
					if recordSplits {
						spBlue[i] = spBlue[newCapB]
					}
				}
				yb, newYB = newYB, yb
				capB = newCapB
			} else if recordSplits {
				for i := 0; i <= capv; i++ {
					spBlue[i] = 0
				}
			}
		}
		for i := 0; i <= capv; i++ {
			idx := l*w + i
			if yb[i] < yr[i] {
				nt.x[idx] = yb[i]
				nt.isBlue[idx] = true
			} else {
				nt.x[idx] = yr[i]
				nt.isBlue[idx] = false
			}
		}
	}
}

// gatherScalar is gatherSerial with scalarComputeNode: the whole-DP
// reference Gather must match bitwise. Its split windows hold both color
// tracks, twice the engines' red-only tableCells.
func gatherScalar(t *topology.Tree, load []int, avail []bool, caps []int, k int) *Tables {
	if k < 0 {
		k = 0
	}
	ecaps := effectiveCaps(t, avail, caps, k)
	tb := &Tables{t: t, load: load, k: k, nodes: make([]nodeTables, t.N())}
	subLoad := t.SubtreeLoads(load)
	sc := newScalarScratch(ecaps[t.Root()])
	var cbuf []*nodeTables
	for _, v := range t.PostOrder() {
		nt := newNodeStorage(t.Depth(v), ecaps[v], t.NumChildren(v))
		for m := range nt.splits {
			nt.splits[m] = make([]int32, 2*len(nt.x))
		}
		cbuf = appendChildTables(cbuf[:0], tb, v)
		scalarComputeNode(t, v, load[v], subLoad[v] > 0, capAt(avail, caps, v), &nt, cbuf, sc)
		tb.nodes[v] = nt
	}
	return tb
}

// scalarSplit reads the reference's two-track breadcrumb of merge m1+2 at
// (color, l, i), clamping i to the effective cap like splitAt.
func scalarSplit(nt *nodeTables, m1 int, blue bool, depth, l, i int) int {
	colorIdx := 0
	if blue {
		colorIdx = 1
	}
	return int(nt.splits[m1][(colorIdx*(depth+1)+l)*(nt.cap+1)+min(i, nt.cap)])
}

// scalarDecide is decide over the reference tables: one SOAR-Color step
// with every split read from the two-track layout the reference wrote,
// so the reference traceback owes nothing to splitAt's blue-from-red-
// row-0 rule.
func scalarDecide(t *topology.Tree, nt *nodeTables, v, budget, l int) (isBlue bool, childBudget []int, childL int) {
	isBlue = nt.blueAt(l, budget)
	children := t.Children(v)
	if len(children) == 0 {
		return isBlue, nil, 0
	}
	childL = l + 1
	if isBlue {
		childL = 1
	}
	childBudget = make([]int, len(children))
	remaining := budget
	for m := len(children) - 1; m >= 1; m-- {
		childBudget[m] = scalarSplit(nt, m-1, isBlue, t.Depth(v), l, remaining)
		remaining -= childBudget[m]
	}
	if isBlue {
		remaining -= nt.capw
	}
	childBudget[0] = remaining
	return isBlue, childBudget, childL
}

// scalarColorPhase is SOAR-Color over the reference tables via scalarDecide.
func scalarColorPhase(tb *Tables) ([]bool, float64) {
	t := tb.t
	blue := make([]bool, t.N())
	stack := []colorFrame{{t.Root(), tb.k, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		isBlue, budgets, childL := scalarDecide(t, &tb.nodes[f.v], f.v, f.i, f.l)
		blue[f.v] = isBlue
		for m, c := range t.Children(f.v) {
			stack = append(stack, colorFrame{c, budgets[m], childL})
		}
	}
	return blue, tb.Optimum()
}

// requireKernelTables fails unless got (an engine's tables) and want (the
// two-track reference) agree bitwise on every value and color flag of
// every switch, and splitAt answers every query a traceback can make —
// a red v at every (ℓ, i), a blue v at every (ℓ, i ≥ c(v)) when v can
// afford blue at all — with the breadcrumb the reference recorded.
func requireKernelTables(t *testing.T, seed int64, name string, tr *topology.Tree, got, want *Tables) {
	t.Helper()
	for v := 0; v < tr.N(); v++ {
		g, w := &got.nodes[v], &want.nodes[v]
		if g.cap != w.cap || g.capw != w.capw {
			t.Fatalf("seed %d: %s switch %d caps (%d,%d), want (%d,%d)", seed, name, v, g.cap, g.capw, w.cap, w.capw)
		}
		for i := range w.x {
			if g.x[i] != w.x[i] || g.isBlue[i] != w.isBlue[i] {
				t.Fatalf("seed %d: %s switch %d table cell %d: (%v,%v) want (%v,%v)",
					seed, name, v, i, g.x[i], g.isBlue[i], w.x[i], w.isBlue[i])
			}
		}
		if len(g.splits) != len(w.splits) {
			t.Fatalf("seed %d: %s switch %d has %d split tables, want %d", seed, name, v, len(g.splits), len(w.splits))
		}
		depth := tr.Depth(v)
		for m := range w.splits {
			if len(g.splits[m]) != tableCells(depth, g.cap) {
				t.Fatalf("seed %d: %s switch %d merge %d stores %d breadcrumbs, want the red-only %d",
					seed, name, v, m, len(g.splits[m]), tableCells(depth, g.cap))
			}
			for _, blue := range []bool{false, true} {
				lo := 0
				if blue {
					if w.capw < 1 || w.capw > w.cap {
						continue // blue never affordable: no traceback asks
					}
					lo = w.capw
				}
				for l := 0; l <= depth; l++ {
					for i := lo; i <= g.cap+1; i++ { // cap+1: the clamped tail
						if gs, ws := g.splitAt(m, blue, l, i), scalarSplit(w, m, blue, depth, l, i); gs != ws {
							t.Fatalf("seed %d: %s switch %d merge %d split(blue=%v, ℓ=%d, i=%d) = %d, want %d",
								seed, name, v, m, blue, l, i, gs, ws)
						}
					}
				}
			}
		}
	}
}

// randomMergeRows builds one random kernel invocation: row widths, a Y
// row and a child row with occasional +Inf cells (the unaffordable-blue
// prefix of the two-track reference's merges).
func randomMergeRows(rng *rand.Rand) (y, x []float64, hi, cw int) {
	hi = rng.Intn(41)
	cw = rng.Intn(13)
	y = make([]float64, hi+1)
	x = make([]float64, max(cw, hi)+1)
	fill := func(row []float64) {
		for i := range row {
			switch rng.Intn(8) {
			case 0:
				row[i] = math.Inf(1)
			case 1:
				row[i] = 0
			case 2:
				// Duplicate small integers force argmin ties.
				row[i] = float64(rng.Intn(3))
			default:
				row[i] = rng.Float64() * 10
			}
		}
	}
	fill(y)
	fill(x)
	return y, x, hi, cw
}

// randomFlatRows builds one invocation of the constant-row kernel: a
// running row y ≡ y0 and a non-increasing child row, the only rows
// computeNode hands to mergeFlat (every DP row is non-increasing in the
// budget). Sorting a randomMergeRows child row keeps its ties and its
// +Inf cells, which sort first.
func randomFlatRows(rng *rand.Rand) (y, x []float64, hi, cw int) {
	y, x, hi, cw = randomMergeRows(rng)
	for i := range y {
		y[i] = y[0]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(x)))
	return y, x, hi, cw
}

// requireMergeMatchesScalar fails unless merge, run on (y, x, hi, cw),
// reproduces mergeScalar bitwise: every value and every first-argmin
// breadcrumb of cells 0..hi.
func requireMergeMatchesScalar(t *testing.T, what string, y, x []float64, hi, cw int, merge func(newY []float64, sp []int32)) {
	t.Helper()
	wantY := make([]float64, hi+1)
	wantSp := make([]int32, hi+1)
	mergeScalar(wantY, wantSp, y, x, 0, hi, min(cw, hi))
	gotY := make([]float64, hi+1)
	gotSp := make([]int32, hi+1)
	merge(gotY, gotSp)
	for i := 0; i <= hi; i++ {
		if math.Float64bits(gotY[i]) != math.Float64bits(wantY[i]) || gotSp[i] != wantSp[i] {
			t.Fatalf("%s (hi=%d cw=%d): cell %d got (%v,%d) want (%v,%d)",
				what, hi, cw, i, gotY[i], gotSp[i], wantY[i], wantSp[i])
		}
	}
}

// requireKernelsMatchScalar checks one random row pair through the
// dispatcher and one constant-row pair through mergeFlat.
func requireKernelsMatchScalar(t *testing.T, what string, rng *rand.Rand) {
	t.Helper()
	y, x, hi, cw := randomMergeRows(rng)
	requireMergeMatchesScalar(t, what+" mergeMinPlus", y, x, hi, cw, func(newY []float64, sp []int32) {
		mergeMinPlus(newY, sp, y, x, hi, cw)
	})
	y, x, hi, cw = randomFlatRows(rng)
	requireMergeMatchesScalar(t, what+" mergeFlat", y, x, hi, cw, func(newY []float64, sp []int32) {
		mergeFlat(newY, sp, y[0], x, hi, cw)
	})
}

// TestMergeKernelMatchesScalar sweeps every (hi, cw) shape through the
// dispatcher, and constant running rows through mergeFlat, and checks
// values and first-argmin breadcrumbs against mergeScalar bitwise.
func TestMergeKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 5000; round++ {
		requireKernelsMatchScalar(t, fmt.Sprintf("round %d", round), rng)
	}
}

// TestMergeKernelAllInfinite pins the all-infinite row convention: the
// merge of an unaffordable blue track (the two-track reference's; the
// engines fold no blue track) keeps value +Inf and argmin 0 in every
// variant.
func TestMergeKernelAllInfinite(t *testing.T) {
	for _, cw := range []int{0, 2, 5, 11} {
		hi := 20
		y := make([]float64, hi+1)
		x := make([]float64, cw+1)
		for i := range y {
			y[i] = math.Inf(1)
		}
		for j := range x {
			x[j] = math.Inf(1)
		}
		newY := make([]float64, hi+1)
		sp := make([]int32, hi+1)
		for i := range sp {
			sp[i] = 99
		}
		mergeMinPlus(newY, sp, y, x, hi, cw)
		for i := 0; i <= hi; i++ {
			if !math.IsInf(newY[i], 1) || sp[i] != 0 {
				t.Fatalf("cw=%d cell %d: got (%v,%d), want (+Inf,0)", cw, i, newY[i], sp[i])
			}
		}
	}
}

// FuzzKernelMatchesGather is the kernel's bitwise-identity fuzz target:
// on fuzzer-chosen instances the kernel-backed Gather must reproduce the
// scalar-merge reference gather cell for cell — values, color flags and
// split breadcrumbs — under uniform availability and capacity vectors,
// on dense and sparse loads, and the resulting placements must match.
// Random raw rows (widths the DP may never hit) are fuzzed against
// mergeScalar too, through the dispatcher and, on constant running
// rows, through mergeFlat.
func FuzzKernelMatchesGather(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-9))
	f.Add(int64(1 << 35))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 32; round++ {
			requireKernelsMatchScalar(t, fmt.Sprintf("seed %d row", seed), rng)
		}

		for _, sparse := range []bool{false, true} {
			tr, loads, avail, k := randomInstance(seed, 25, 6, sparse)
			requireKernelTables(t, seed, "uniform", tr, Gather(tr, loads, avail, k), gatherScalar(tr, loads, avail, nil, k))
			res := Solve(tr, loads, avail, k)
			wantBlue, wantCost := scalarColorPhase(gatherScalar(tr, loads, avail, nil, k))
			if math.Float64bits(res.Cost) != math.Float64bits(wantCost) {
				t.Fatalf("seed %d sparse=%v: kernel φ=%v, scalar φ=%v", seed, sparse, res.Cost, wantCost)
			}
			for v := range wantBlue {
				if res.Blue[v] != wantBlue[v] {
					t.Fatalf("seed %d sparse=%v: placement differs at switch %d", seed, sparse, v)
				}
			}

			caps := make([]int, tr.N())
			for v := range caps {
				caps[v] = rng.Intn(4)
			}
			requireKernelTables(t, seed, "caps", tr, GatherCaps(tr, loads, caps, k), gatherScalar(tr, loads, nil, caps, k))
		}
	})
}
