package core

import "soar/internal/topology"

// nodeTables holds the DP state of one switch. All rows are stored at
// the effective width cap+1 (see EffectiveCaps): X_v(ℓ, i) is constant
// for i ≥ cap, so wider storage would only repeat the last column.
// Readers clamp i to cap via at/blueAt/splitAt.
type nodeTables struct {
	// cap = min(k, Σ_{u ∈ T_v} c(u)): the largest budget T_v can use
	// (|T_v ∩ Λ| in the uniform model, where every capacity is 0 or 1).
	cap int
	// capw = c(v): the capacity weight a blue v consumes from the budget.
	// 0 means v ∉ Λ; the uniform model uses 1 for every available switch.
	// SOAR-Color needs it to keep the budget bookkeeping of the traceback
	// exact, so every engine records it alongside the tables.
	capw int
	// x[l*(cap+1)+i] = X_v(ℓ=l, i): minimal potential over colorings of
	// T_v with at most i blue switches, given the nearest blue ancestor
	// (or d) is l hops above v. Non-increasing in i.
	x []float64
	// isBlue mirrors x and records whether the minimum colors v blue
	// (strictly better than red; ties resolve to red, as in the paper's
	// Alg. 4 line 6).
	isBlue []bool
	// zero records that T_v carries no load, so x ≡ 0, isBlue ≡ false
	// and every split is 0: computeNode sets it on every call and a
	// parent's fold then treats the table as the merge identity without
	// reading it. Tables built elsewhere (XTable frames, the memo's shared
	// zero slab) leave it false and take the ordinary, equally exact path.
	zero bool
	// splits[m-2] records, for the merge of child m (m = 2..C(v)), the
	// optimal number of blue switches assigned to that child's subtree
	// under a RED v: splits[m-2][l*(cap+1)+i], tableCells per merge. A
	// blue v stores nothing — its children see ℓ = 1 whatever v's own ℓ,
	// exactly as below a red v at ℓ = 0, so splitAt answers a blue query
	// from row 0 (see computeNode).
	splits [][]int32
}

// at returns X_v(ℓ=l, i), clamping i to the effective cap.
//
//soar:hotpath
func (nt *nodeTables) at(l, i int) float64 {
	if i > nt.cap {
		i = nt.cap
	}
	return nt.x[l*(nt.cap+1)+i]
}

// blueAt reports whether the optimum at X_v(ℓ=l, i) colors v blue,
// clamping i to the effective cap.
//
//soar:hotpath
func (nt *nodeTables) blueAt(l, i int) bool {
	if i > nt.cap {
		i = nt.cap
	}
	return nt.isBlue[l*(nt.cap+1)+i]
}

// splitAt returns the argmin split of merge m1+2 (m1 = 0..C(v)-2) for a
// v of the given color at (l, i), clamping i to the effective cap: for
// i ≥ cap the unbounded DP records the same split at every column (the
// merge costs no longer depend on i), so the cap column stands in for
// the tail. A blue v spends c(v) and folds its children at ℓ = 1 — the
// red fold of row 0 on the remaining budget — so a blue query reads the
// red breadcrumb at (0, i − c(v)); it is defined for i ≥ c(v) only, the
// columns where blue is affordable.
//
//soar:hotpath
func (nt *nodeTables) splitAt(m1 int, blue bool, l, i int) int {
	if i > nt.cap {
		i = nt.cap
	}
	if blue {
		l, i = 0, i-nt.capw
	}
	return int(nt.splits[m1][l*(nt.cap+1)+i])
}

// tableCells is the number of (ℓ, i) cells of a switch's table: the size
// of x, of isBlue and of each merge's breadcrumb window (red track only).
// Every engine sizes its node storage through it.
//
//soar:hotpath
func tableCells(depth, capv int) int { return (depth + 1) * (capv + 1) }

// Gather runs SOAR-Gather (paper Alg. 3) serially in post-order and
// returns the full DP state. avail == nil means every switch may be blue.
// A negative k is treated as 0.
func Gather(t *topology.Tree, load []int, avail []bool, k int) *Tables {
	validate(t, load, avail)
	if k < 0 {
		k = 0
	}
	return gatherSerial(t, load, avail, nil, k)
}

// GatherCaps is Gather under the heterogeneous capacity model: a blue at
// v consumes caps[v] of the budget (caps[v] = 0 means v may not be blue;
// caps == nil means every switch has capacity 1, i.e. the uniform model).
func GatherCaps(t *topology.Tree, load []int, caps []int, k int) *Tables {
	validateCaps(t, load, caps)
	if k < 0 {
		k = 0
	}
	return gatherSerial(t, load, nil, caps, k)
}

func gatherSerial(t *topology.Tree, load []int, avail []bool, caps []int, k int) *Tables {
	ecaps := effectiveCaps(t, avail, caps, k)
	ar := newArena(t, ecaps)
	tb := &Tables{
		t:     t,
		load:  load,
		k:     k,
		nodes: make([]nodeTables, t.N()),
	}
	subLoad := t.SubtreeLoads(load)
	sc := newScratch(ecaps[t.Root()])
	var cbuf []*nodeTables // reused across nodes: one growth, not one make per node
	for _, v := range t.PostOrder() {
		nt := ar.node(t, v)
		cbuf = appendChildTables(cbuf[:0], tb, v)
		computeNode(t, v, load[v], subLoad[v] > 0, capAt(avail, caps, v), &nt, cbuf, sc)
		tb.nodes[v] = nt
	}
	return tb
}

func isAvail(avail []bool, v int) bool { return avail == nil || avail[v] } //soar:hotpath

// capAt returns the capacity weight of switch v: caps[v] when a capacity
// vector is present, else 1 when v is available (the uniform model, in
// which selecting any available switch consumes one unit of the budget).
//
//soar:hotpath
func capAt(avail []bool, caps []int, v int) int {
	if caps != nil {
		return caps[v]
	}
	if avail == nil || avail[v] {
		return 1
	}
	return 0
}

// appendChildTables appends pointers to v's children's tables to dst, in
// child order. Engines pass a reused buffer to keep the sweep
// allocation-free; pass nil for fresh storage.
//
//soar:hotpath
func appendChildTables(dst []*nodeTables, tb *Tables, v int) []*nodeTables {
	for _, c := range tb.t.Children(v) {
		dst = append(dst, &tb.nodes[c])
	}
	return dst
}

// computeNode fills the DP tables of one switch from its children's
// tables. It is shared by every engine: serial, memoized, incremental
// and the per-switch protocol engine (NodeState) behind internal/cluster.
//
// nt must arrive pre-sized for cap (arena.node, newNodeStorage or
// ensureNodeStorage). Every cell of nt, and nt.zero, is overwritten, so
// recycled storage needs no clearing.
//
// Parameters: load is L(v); hasLoad is whether T_v's total load is
// positive (a blue v sends min(1, subtree load) messages upward — see the
// package comment of internal/reduce); capw is v's capacity weight c(v) —
// the budget a blue v consumes — with 0 meaning v ∉ Λ and 1 the uniform
// model (so capw ∈ {0, 1} reproduces the original engine bitwise).
//
// The inner loops run over the effective budgets only: a row's columns
// beyond the merged prefix's cap are filled by copying the cap column
// (they are provably equal — see DESIGN.md), and a child's table is read
// through its own cap+1 columns. This turns the paper's O(n·h·k²) sweep
// into ~O(n·h·k) (the tree-knapsack bound Σ_v Σ_m cap_prefix·cap_child =
// O(n·k)) while keeping tables, breadcrumbs and placements bitwise
// identical to the unbounded DP. A load-free subtree is the identity of
// the merge (DESIGN.md "A load-free subtree is the merge identity"), so
// under sparse loads the sweep costs O(loaded subtrees), not O(n).
//
//soar:hotpath
func computeNode(t *topology.Tree, v, load int, hasLoad bool, capw int, nt *nodeTables, children []*nodeTables, sc *scratch) {
	depth := t.Depth(v)
	capv := nt.cap
	nt.capw = capw
	nt.zero = !hasLoad
	if !hasLoad {
		// No message ever leaves T_v: every candidate is ρ·0 = 0, red wins
		// every tie, and every first argmin is j = 0.
		clear(nt.x)
		clear(nt.isBlue)
		for _, sp := range nt.splits {
			clear(sp)
		}
		return
	}
	w := capv + 1
	// Blue is feasible at all iff some budget column can pay for v:
	// capw ≤ capv ⟺ capw ≤ k (capv ≥ min(k, capw) and capv ≤ k).
	blueOK := capw >= 1 && capw <= capv
	if len(children) == 0 {
		// Leaf (paper Alg. 3 lines 1-9, with the min() refinement so the
		// table stays optimal under "at most i" semantics and zero loads).
		// capv = min(k, capw) for a leaf: red everywhere, plus a blue
		// column at i = capw when v ∈ Λ and capw ≤ k (i.e. exactly the
		// last column, which all wider reads clamp to).
		for l := 0; l <= depth; l++ {
			rho := t.RhoUp(v, l)
			red := rho * float64(load)
			for i := 0; i <= capv; i++ {
				idx := l*w + i
				nt.x[idx] = red
				nt.isBlue[idx] = false // recycled storage: every cell is rewritten
			}
			// A blue v sends min(1, L(T_v)) = 1 message, costing ρ. At
			// ℓ = 0 both colors cost 0 and red wins the tie.
			if blueOK && l > 0 && rho < red {
				idx := l*w + capw
				nt.x[idx] = rho
				nt.isBlue[idx] = true
			}
		}
		return
	}

	// One fold per ℓ, for a red v. A blue v needs none of its own: its
	// children see ℓ = 1 whatever v's ℓ is — what a red v's children see
	// at ℓ = 0, where v's own term ρ(v, A⁰)·L(v) vanishes — so
	//
	//	Y_blue(ℓ, i) = Y_red(0, i − c(v)) + ρ(v, Aℓ)·min(1, L(T_v)),
	//
	// values and argmin splits alike (splitAt). r0 keeps the red row 0.
	// The paper's two-track form adds the ρ term before the fold, this one
	// after: the same bits when the sums are exact (unit, dyadic ρ), a
	// last-ulp difference otherwise (DESIGN.md).
	yr, newYR, r0 := sc.yr[:w], sc.newYR[:w], sc.r0[:w]
	for l := 0; l <= depth; l++ {
		rho := t.RhoUp(v, l)
		// m = 1 (paper Alg. 3 lines 14-19): fold in the first child. capR
		// tracks the effective cap of the running Y row: min(capv, Σ caps
		// of the merged children). flat records that only load-free
		// children are merged so far: the row is then the constant
		// 0 + redBase (== redBase, as redBase ≥ +0) in every column.
		c1 := children[0]
		redBase := rho * float64(load)
		capR := min(capv, c1.cap)
		flat := c1.zero
		if flat {
			for i := range yr {
				yr[i] = redBase
			}
		} else {
			redRow := c1.x[(l+1)*(c1.cap+1):]
			for i := 0; i <= capR; i++ {
				yr[i] = redRow[i] + redBase
			}
			for i := capR + 1; i <= capv; i++ {
				yr[i] = yr[capR]
			}
		}
		// m ≥ 2 (paper Alg. 3 lines 20-25): min-plus merge per child via
		// the SoA kernel (kernel.go), recording the argmin split for the
		// traceback. The assignment j to child m never usefully exceeds
		// cap[c_m] (its table is constant there and Y is non-increasing,
		// so j = cap[c_m] is at least as good and scanned first), hence
		// j ≤ min(i, cap[c_m]) visits every candidate the unbounded scan
		// could have picked.
		for m := 1; m < len(children); m++ {
			cm := children[m]
			spRed := nt.splits[m-1][l*w : (l+1)*w]
			newCapR := min(capv, capR+cm.cap)
			if cm.zero {
				// The merge identity: y[i-j] + 0 is smallest at j = 0
				// (y is non-increasing) and y[i] + 0.0 == y[i], so the row
				// stays as it is and every split is 0.
				clear(spRed)
				capR = newCapR
				continue
			}
			wcm := cm.cap + 1
			xRed := cm.x[(l+1)*wcm : (l+1)*wcm+wcm] // child sees ℓ+1 below a red v
			if flat {
				mergeFlat(newYR, spRed, yr[0], xRed, newCapR, cm.cap)
				flat = false
			} else {
				mergeMinPlus(newYR, spRed, yr, xRed, newCapR, cm.cap)
			}
			for i := newCapR + 1; i <= capv; i++ {
				newYR[i] = newYR[newCapR]
				spRed[i] = spRed[newCapR]
			}
			yr, newYR = newYR, yr
			capR = newCapR
		}
		if l == 0 {
			copy(r0, yr)
		}
		// X_v(ℓ, i) = min over v's color (paper Alg. 3 line 28): red, unless
		// v can pay for blue (i ≥ c(v)) and blue is strictly cheaper. At
		// ℓ = 0 it never is: the candidate r0[i−c(v)] + 0 is ≥ r0[i] = yr[i]
		// because the red row is non-increasing in i (DESIGN.md).
		row, rowBlue := nt.x[l*w:(l+1)*w], nt.isBlue[l*w:(l+1)*w]
		copy(row, yr)
		clear(rowBlue) // recycled storage: every cell is rewritten
		if blueOK && l > 0 {
			for i := capw; i <= capv; i++ {
				if yb := r0[i-capw] + rho; yb < yr[i] { // ρ(v, Aℓ)·min(1, L(T_v))
					row[i] = yb
					rowBlue[i] = true
				}
			}
		}
	}
}
