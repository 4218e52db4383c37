package core

import "soar/internal/topology"

// This file implements the two memory-layer optimizations behind the
// bounded DP (see DESIGN.md "Effective-budget clamping"):
//
//   - EffectiveCaps computes cap[v] = min(k, Σ_{u ∈ T_v} c(u)) — the
//     largest budget a subtree can actually use; |T_v ∩ Λ| in the uniform
//     model, the capacity-vector sum under EffectiveCapsVec. X_v(ℓ, ·) is
//     constant beyond cap[v], so every table row is stored at width
//     cap[v]+1 and reads past the cap clamp to the last column.
//   - arena backs all nodeTables of one Gather run with a handful of
//     slabs instead of O(n) per-node allocations. Offsets are prefix
//     sums computed up front.

// EffectiveCaps returns, for every switch v, the effective budget
// cap[v] = min(k, |T_v ∩ Λ|): placing more than cap[v] blue switches
// inside T_v is impossible, so X_v(ℓ, i) = X_v(ℓ, cap[v]) for every
// i ≥ cap[v]. avail == nil means every switch is available. A negative
// k is treated as 0.
func EffectiveCaps(t *topology.Tree, avail []bool, k int) []int {
	return effectiveCaps(t, avail, nil, k)
}

// EffectiveCapsVec is EffectiveCaps under the heterogeneous capacity
// model: cap[v] = min(k, Σ_{u ∈ T_v} caps[u]), the largest budget the
// subtree can consume when a blue at u costs caps[u] units. With a 0/1
// capacity vector it coincides with EffectiveCaps, whose |T_v ∩ Λ| is
// the same sum. caps == nil means every switch has capacity 1.
func EffectiveCapsVec(t *topology.Tree, caps []int, k int) []int {
	return effectiveCaps(t, nil, caps, k)
}

// effectiveCaps is the shared implementation: the per-switch weight is
// caps[v] when a capacity vector is present, else 1 on Λ (see capAt).
// The running sum accumulates in int64 so the clamp is exact even with
// MaxCapacity weights and a near-MaxInt budget on 32-bit platforms.
func effectiveCaps(t *topology.Tree, avail []bool, caps []int, k int) []int {
	out := make([]int, t.N())
	effectiveCapsInto(out, t, avail, caps, k)
	return out
}

// effectiveCapsInto is effectiveCaps writing into a caller-owned buffer
// of length N(): stateless solves allocate, but the memo and the batch
// solver recompute caps every call and reuse one buffer.
//
//soar:hotpath
func effectiveCapsInto(out []int, t *topology.Tree, avail []bool, caps []int, k int) {
	if k < 0 {
		k = 0
	}
	for _, v := range t.PostOrder() {
		c := int64(capAt(avail, caps, v))
		if c < int64(k) {
			for _, ch := range t.Children(v) {
				c += int64(out[ch])
				if c >= int64(k) {
					break
				}
			}
		}
		if c > int64(k) {
			c = int64(k)
		}
		out[v] = int(c)
	}
}

// effectiveCapRoot returns the root's effective cap min(k, Σ_v c(v))
// without materializing the whole vector — the memoized gather fuses
// the per-switch caps into its sweep and only needs the root bound to
// size its merge scratch, and only when a solve actually misses.
//
//soar:hotpath
func effectiveCapRoot(t *topology.Tree, avail []bool, caps []int, k int) int {
	if k < 0 {
		k = 0
	}
	var c int64
	for v := 0; v < t.N(); v++ {
		c += int64(capAt(avail, caps, v))
		if c >= int64(k) {
			return k
		}
	}
	return int(c)
}

// arena owns the backing storage of one Gather run: one float64 slab for
// the X tables, one bool slab for the color flags, and one int32 slab
// plus one slice-header slab for the split tables. Per-node offsets are
// precomputed, so node(v) is pure slicing — no allocation — and a full
// solve performs O(1) large allocations instead of O(n) small ones.
type arena struct {
	caps  []int
	xOff  []int // xOff[v]: offset of v's x/isBlue window; xOff[n] = total
	spOff []int // offset into the int32 split slab
	hdOff []int // offset into the split header slab

	x      []float64
	isBlue []bool
	splits []int32
	hdr    [][]int32
}

// newArena sizes and allocates the slabs for one run over t with the
// given effective caps, with per-switch windows laid out in level order
// (levelOrderOffsets): the bottom-up sweep fills each slab back to
// front, siblings adjacent — the SoA layout the merge kernel streams
// over.
func newArena(t *topology.Tree, caps []int) *arena {
	n := t.N()
	a := &arena{caps: caps}
	a.xOff, a.spOff, a.hdOff = levelOrderOffsets(t, caps)
	a.x = make([]float64, a.xOff[n])
	a.isBlue = make([]bool, a.xOff[n])
	a.splits = make([]int32, a.spOff[n])
	a.hdr = make([][]int32, a.hdOff[n])
	return a
}

// node carves the pre-sized, zeroed tables of switch v out of the slabs.
// Capacities are pinned to the window sizes so a later regrowth (the
// incremental engine under SetAvail) reallocates instead of bleeding
// into a neighbor's window.
func (a *arena) node(t *topology.Tree, v int) nodeTables {
	sz := tableCells(t.Depth(v), a.caps[v])
	lo, hi := a.xOff[v], a.xOff[v]+sz
	nt := nodeTables{
		cap:    a.caps[v],
		x:      a.x[lo:hi:hi],
		isBlue: a.isBlue[lo:hi:hi],
	}
	if merges := t.NumChildren(v) - 1; merges > 0 {
		nt.splits = a.hdr[a.hdOff[v] : a.hdOff[v]+merges : a.hdOff[v]+merges]
		off := a.spOff[v]
		for m := range nt.splits {
			nt.splits[m] = a.splits[off : off+sz : off+sz]
			off += sz
		}
	}
	return nt
}

// newNodeStorage allocates standalone tables for one switch, for engines
// that build nodes in isolation (the message-passing protocol engine).
func newNodeStorage(depth, capv, numChildren int) nodeTables {
	sz := tableCells(depth, capv)
	nt := nodeTables{
		cap:    capv,
		x:      make([]float64, sz),
		isBlue: make([]bool, sz),
	}
	if numChildren > 1 {
		nt.splits = make([][]int32, numChildren-1)
		for m := range nt.splits {
			nt.splits[m] = make([]int32, sz)
		}
	}
	return nt
}

// ensureNodeStorage resizes nt in place for a (possibly changed) cap,
// reusing the existing backing arrays whenever they are large enough.
// The incremental engine calls this on every recompute, so steady-state
// flushes (loads changing, caps stable) allocate nothing; the grow
// branches below only fire when a cap was raised, and carry coldpath
// waivers so soarlint's hotpath analyzer enforces exactly that.
//
//soar:hotpath
func ensureNodeStorage(nt *nodeTables, depth, capv, numChildren int) {
	sz := tableCells(depth, capv)
	nt.cap = capv
	if cap(nt.x) >= sz {
		nt.x = nt.x[:sz]
	} else {
		nt.x = make([]float64, sz) //soar:coldpath cap grew
	}
	if cap(nt.isBlue) >= sz {
		nt.isBlue = nt.isBlue[:sz]
	} else {
		nt.isBlue = make([]bool, sz) //soar:coldpath cap grew
	}
	if numChildren <= 1 {
		nt.splits = nil
		return
	}
	if nt.splits == nil {
		nt.splits = make([][]int32, numChildren-1) //soar:coldpath first use
	}
	for m := range nt.splits {
		if cap(nt.splits[m]) >= sz {
			nt.splits[m] = nt.splits[m][:sz]
		} else {
			nt.splits[m] = make([]int32, sz) //soar:coldpath cap grew
		}
	}
}

// scratch holds the merge rows of computeNode: the two Y rows the red
// fold ping-pongs between and the kept red row 0 every blue value is
// derived from. One scratch serves a whole serial run (or one stateful
// engine); it is sized once at the widest row any node can need and
// re-sliced per node. maxCap is the root's effective cap: cap(v) ≤
// cap(root) for every v, so width maxCap+1 covers the whole tree. A
// budget of k=1<<30 with three available switches costs rows of width
// 4, not three gigarows.
type scratch struct {
	yr, newYR, r0 []float64
}

func newScratch(maxCap int) *scratch {
	buf := make([]float64, 3*(maxCap+1))
	w := maxCap + 1
	return &scratch{
		yr:    buf[0*w : 1*w],
		newYR: buf[1*w : 2*w],
		r0:    buf[2*w : 3*w],
	}
}
