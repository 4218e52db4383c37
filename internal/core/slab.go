package core

import "soar/internal/topology"

// This file owns the structure-of-arrays slab layout behind the DP
// engines (see DESIGN.md "SoA merge kernel").
//
// Layout. One Gather run stores every switch's tables in a handful of
// contiguous slabs (one float64 slab for X values, one bool slab for
// color flags, one int32 slab for split breadcrumbs), carved by
// precomputed per-switch offsets. Offsets are assigned in LEVEL ORDER
// (BFS): all switches of tree level d occupy one contiguous segment of
// each slab, ordered left to right, and segments stack root-down:
//
//	x: [lvl 0 | lvl 1        | lvl 2                  | ... ]
//	        └ per switch: rows ℓ = 0..depth, each cap(v)+1 wide
//
// Within a switch the row stride is its effective cap width cap(v)+1
// (EffectiveCaps), NOT the global k+1: rows are dense, and a level's
// segment is the concatenation of its switches' cap-width-strided
// windows. The merge kernel (kernel.go) always streams one child row
// against one running row, so what it needs from the layout is exactly
// what level order provides: the rows of the switches merged together
// (siblings, one level) are adjacent in memory, and the bottom-up sweep
// walks each slab back to front instead of hopping in node-id order.
//
// Offsets and sizes are computed in int (int64 on 64-bit platforms) from
// int64-accumulated effective caps, so the layout arithmetic cannot wrap
// even at MaxCapacity weights; the 386 CI lane pins the 32-bit behavior.

// levelOrderOffsets assigns every switch's slab windows in BFS order:
// xOff[v] is the start of v's x/isBlue window (rows*(cap+1) cells wide),
// spOff/hdOff the split-slab and split-header windows. The final slab
// sizes sit at index n.
func levelOrderOffsets(t *topology.Tree, caps []int) (xOff, spOff, hdOff []int) {
	n := t.N()
	xOff = make([]int, n+1)
	spOff = make([]int, n+1)
	hdOff = make([]int, n+1)
	// Prefix sums in visit order, scattered to per-node indices: v's
	// window starts where the previous BFS switch's window ended.
	x, sp, hd := 0, 0, 0
	for _, v := range t.BFSOrder() {
		sz := tableCells(t.Depth(v), caps[v])
		xOff[v] = x
		x += sz
		merges := max(t.NumChildren(v)-1, 0)
		spOff[v] = sp
		hdOff[v] = hd
		sp += merges * sz
		hd += merges
	}
	xOff[n], spOff[n], hdOff[n] = x, sp, hd
	return xOff, spOff, hdOff
}

// slabAlloc carves immutable class-table storage for a Memo out of
// chunked slabs instead of one allocation per table: classes interned
// together land adjacent in memory (the warm working set of a symmetric
// tree is a few dense slabs), and a cache miss costs a bump-pointer
// slice most of the time. Chunks are never reused — Reset drops the
// references and lets live aliased tables keep their chunks alive —
// so carved windows keep the memo's immutability contract.
type slabAlloc struct {
	f64 []float64
	b   []bool
	i32 []int32
}

// slabChunk is the minimum chunk size, in elements. Tables wider than a
// chunk get a dedicated allocation of their exact size.
const slabChunk = 16384

// floats carves an all-zero float64 window of n cells.
//
//soar:hotpath
func (s *slabAlloc) floats(n int) []float64 {
	if len(s.f64)+n > cap(s.f64) {
		s.f64 = make([]float64, 0, max(n, slabChunk)) //soar:coldpath new chunk
	}
	lo := len(s.f64)
	s.f64 = s.f64[: lo+n : cap(s.f64)]
	return s.f64[lo : lo+n : lo+n]
}

// bools carves an all-false bool window of n cells.
//
//soar:hotpath
func (s *slabAlloc) bools(n int) []bool {
	if len(s.b)+n > cap(s.b) {
		s.b = make([]bool, 0, max(n, slabChunk)) //soar:coldpath new chunk
	}
	lo := len(s.b)
	s.b = s.b[: lo+n : cap(s.b)]
	return s.b[lo : lo+n : lo+n]
}

// int32s carves an all-zero int32 window of n cells.
//
//soar:hotpath
func (s *slabAlloc) int32s(n int) []int32 {
	if len(s.i32)+n > cap(s.i32) {
		s.i32 = make([]int32, 0, max(n, slabChunk)) //soar:coldpath new chunk
	}
	lo := len(s.i32)
	s.i32 = s.i32[: lo+n : cap(s.i32)]
	return s.i32[lo : lo+n : lo+n]
}

// newNodeStorageSlab is newNodeStorage carving from a slab allocator:
// the memo's class tables are written once (computeNode overwrites
// every cell) and immutable afterwards, so they can share chunks.
func newNodeStorageSlab(s *slabAlloc, depth, capv, numChildren int) nodeTables {
	sz := tableCells(depth, capv)
	nt := nodeTables{
		cap:    capv,
		x:      s.floats(sz),
		isBlue: s.bools(sz),
	}
	if numChildren > 1 {
		nt.splits = make([][]int32, numChildren-1)
		for m := range nt.splits {
			nt.splits[m] = s.int32s(sz)
		}
	}
	return nt
}
