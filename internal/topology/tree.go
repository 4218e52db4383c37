// Package topology models the weighted tree networks on which the
// φ-BIC problem (SOAR, CoNEXT 2021) is defined.
//
// A Tree is a rooted tree over n switches, numbered 0..n-1, with the root
// switch r connected to an implicit destination server d by one more edge.
// Every edge e carries a rate ω(e) (messages per second); its cost is
// ρ(e) = 1/ω(e), the per-message transmission time. All edges are directed
// toward d. Following the paper, depth is measured in hops to the
// destination d (the root has depth 1), and height h(T) is the maximum
// hop distance from a switch to the root r.
package topology

import (
	"errors"
	"fmt"
	"sync"
)

// NoParent marks the root in a parent vector.
const NoParent = -1

// Tree is an immutable weighted rooted tree of switches.
//
// Construct trees with New or one of the builders (CompleteBinary, BT,
// CompleteKAry, ScaleFree, RandomRecursive, Path, Star). A Tree carries
// the topology and link rates only; per-switch loads are handled by
// package load and passed alongside the tree. soarlint's immutable
// analyzer enforces the immutability: no field of a Tree is written
// outside its //soar:ctor construction functions.
//
//soar:immutable
type Tree struct {
	parent   []int
	children [][]int
	rho      []float64 // rho[v] = ρ of edge (v, parent(v)); rho[root] = ρ of (r, d)
	depth    []int     // hops from v to the destination d; depth[root] == 1
	post     []int     // post-order traversal (children before parents)
	bfs      []int     // breadth-first order (root first)
	leaves   []int     // switches with no children, in increasing id order
	// rhoUp rows live in one flat slab (better cache locality, one
	// allocation): row v is rhoUpFlat[rhoUpOff[v] : rhoUpOff[v]+depth[v]+1].
	rhoUpFlat []float64
	rhoUpOff  []int
	root      int
	height    int // h(T): max hops from a switch to the root r
	// dig caches the structural digests of digest.go. Built lazily on
	// first use; a Tree is immutable after New, so the cache can never go
	// stale (rate changes go through ApplyRates, which builds a fresh
	// Tree and therefore fresh digests — the "invalidation" story).
	dig treeDigests
}

// treeDigests holds the lazily built canonical-code caches (digest.go).
type treeDigests struct {
	once    sync.Once
	path    []int32 // path[v]: interned id of the ρ sequence v → root
	sub     []int32 // sub[v]: interned unordered canonical code of T_v
	numPath int
	numSub  int
}

// New builds a tree from a parent vector and per-edge rates.
//
// parent[v] is the parent switch of v, or NoParent for the single root.
// omega[v] is the rate ω of the edge from v to its parent; for the root it
// is the rate of the edge (r, d). All rates must be strictly positive.
//
//soar:ctor
func New(parent []int, omega []float64) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, errors.New("topology: empty tree")
	}
	if len(omega) != n {
		return nil, fmt.Errorf("topology: got %d rates for %d nodes", len(omega), n)
	}
	t := &Tree{
		parent:   append([]int(nil), parent...),
		children: make([][]int, n),
		rho:      make([]float64, n),
		depth:    make([]int, n),
		root:     -1,
	}
	for v, p := range parent {
		switch {
		case p == NoParent:
			if t.root >= 0 {
				return nil, fmt.Errorf("topology: multiple roots (%d and %d)", t.root, v)
			}
			t.root = v
		case p < 0 || p >= n:
			return nil, fmt.Errorf("topology: node %d has out-of-range parent %d", v, p)
		case p == v:
			return nil, fmt.Errorf("topology: node %d is its own parent", v)
		default:
			t.children[p] = append(t.children[p], v)
		}
		if omega[v] <= 0 {
			return nil, fmt.Errorf("topology: node %d has non-positive rate %v", v, omega[v])
		}
		t.rho[v] = 1 / omega[v]
	}
	if t.root < 0 {
		return nil, errors.New("topology: no root node")
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(parent []int, omega []float64) *Tree {
	t, err := New(parent, omega)
	if err != nil {
		panic(err)
	}
	return t
}

// index computes depths, traversal orders and ρ prefix sums, and rejects
// disconnected or cyclic parent vectors.
//
//soar:ctor
func (t *Tree) index() error {
	n := len(t.parent)
	// BFS from the root establishes depths and detects unreachable nodes.
	t.bfs = make([]int, 0, n)
	t.bfs = append(t.bfs, t.root)
	t.depth[t.root] = 1
	for i := 0; i < len(t.bfs); i++ {
		v := t.bfs[i]
		for _, c := range t.children[v] {
			t.depth[c] = t.depth[v] + 1
			t.bfs = append(t.bfs, c)
		}
	}
	if len(t.bfs) != n {
		return fmt.Errorf("topology: %d of %d nodes unreachable from root (cycle or forest)", n-len(t.bfs), n)
	}
	// Post-order: reverse BFS of a tree visits children before parents.
	t.post = make([]int, n)
	for i, v := range t.bfs {
		t.post[n-1-i] = v
	}
	t.height = 0
	for _, d := range t.depth {
		if d-1 > t.height {
			t.height = d - 1
		}
	}
	// Leaves, cached once: the incremental allocator's hot path asks for
	// them on every workload arrival.
	for v := 0; v < n; v++ {
		if len(t.children[v]) == 0 {
			t.leaves = append(t.leaves, v)
		}
	}
	// rhoUp row v, entry l = Σ ρ of the first l edges on the path from v
	// toward d. All rows share one flat slab, offset by rhoUpOff.
	t.rhoUpOff = make([]int, n+1)
	for v := 0; v < n; v++ {
		t.rhoUpOff[v+1] = t.rhoUpOff[v] + t.depth[v] + 1
	}
	t.rhoUpFlat = make([]float64, t.rhoUpOff[n])
	for _, v := range t.bfs { // parents before children
		d := t.depth[v]
		row := t.rhoUpFlat[t.rhoUpOff[v] : t.rhoUpOff[v]+d+1]
		row[1] = t.rho[v]
		if p := t.parent[v]; p != NoParent {
			prow := t.rhoUpFlat[t.rhoUpOff[p]:]
			for l := 2; l <= d; l++ {
				row[l] = t.rho[v] + prow[l-1]
			}
		}
	}
	return nil
}

// N returns the number of switches (the destination d is not counted).
func (t *Tree) N() int { return len(t.parent) } //soar:hotpath

// Root returns the root switch r, the switch adjacent to the destination.
func (t *Tree) Root() int { return t.root } //soar:hotpath

// Parent returns the parent of v, or NoParent if v is the root.
func (t *Tree) Parent(v int) int { return t.parent[v] } //soar:hotpath

// Children returns the children of v. The returned slice is shared and
// must not be modified.
func (t *Tree) Children(v int) []int { return t.children[v] } //soar:hotpath

// NumChildren returns C(v), the number of children of v.
func (t *Tree) NumChildren(v int) int { return len(t.children[v]) } //soar:hotpath

// IsLeaf reports whether v has no children.
func (t *Tree) IsLeaf(v int) bool { return len(t.children[v]) == 0 } //soar:hotpath

// Depth returns the number of hops from v to the destination d.
// The root has depth 1.
func (t *Tree) Depth(v int) int { return t.depth[v] } //soar:hotpath

// Height returns h(T), the maximum hop distance from any switch to the
// root r.
func (t *Tree) Height() int { return t.height } //soar:hotpath

// Rho returns ρ(v) = 1/ω of the edge from v to its parent (for the root,
// of the edge (r, d)).
func (t *Tree) Rho(v int) float64 { return t.rho[v] } //soar:hotpath

// RhoUp returns ρ(v, A^l_v): the summed ρ of the first l edges on the
// path from v toward the destination. RhoUp(v, 0) == 0 and
// RhoUp(v, Depth(v)) is the full path cost from v to d.
//
//soar:hotpath
func (t *Tree) RhoUp(v, l int) float64 {
	if l < 0 || l > t.depth[v] {
		panic("topology: RhoUp distance out of range")
	}
	return t.rhoUpFlat[t.rhoUpOff[v]+l]
}

// PostOrder returns a traversal visiting every child before its parent.
// The returned slice is shared and must not be modified.
func (t *Tree) PostOrder() []int { return t.post } //soar:hotpath

// BFSOrder returns a traversal visiting every parent before its children,
// starting at the root. The returned slice is shared and must not be
// modified.
func (t *Tree) BFSOrder() []int { return t.bfs } //soar:hotpath

// Leaves returns the switches with no children, in increasing id order.
// The returned slice is shared and must not be modified; it is computed
// once at construction time.
func (t *Tree) Leaves() []int { return t.leaves } //soar:hotpath

// NodesAtLevel returns the switches at hop distance lvl from the root
// (level 0 is the root itself), in increasing id order (the scan below
// already visits ids in increasing order).
func (t *Tree) NodesAtLevel(lvl int) []int {
	var ns []int
	for v := 0; v < t.N(); v++ {
		if t.depth[v]-1 == lvl {
			ns = append(ns, v)
		}
	}
	return ns
}

// Ancestor returns the ancestor of v at distance l (Ancestor(v, 0) == v).
// It panics if l exceeds the distance from v to the root plus one; the
// destination itself is not addressable.
func (t *Tree) Ancestor(v, l int) int {
	for ; l > 0; l-- {
		v = t.parent[v]
		if v == NoParent {
			panic("topology: Ancestor beyond root")
		}
	}
	return v
}

// PathToRoot returns the switches on the path from v to the root,
// inclusive of both endpoints.
func (t *Tree) PathToRoot(v int) []int {
	var p []int
	for {
		p = append(p, v)
		if v == t.root {
			return p
		}
		v = t.parent[v]
	}
}

// SubtreeSizes returns, for every switch v, the number of switches in the
// subtree rooted at v (including v).
func (t *Tree) SubtreeSizes() []int {
	sz := make([]int, t.N())
	for _, v := range t.post {
		sz[v] = 1
		for _, c := range t.children[v] {
			sz[v] += sz[c]
		}
	}
	return sz
}

// SubtreeLoads returns, for every switch v, the total load in the subtree
// rooted at v. load must have length N().
func (t *Tree) SubtreeLoads(load []int) []int64 {
	sub := make([]int64, t.N())
	for _, v := range t.post {
		sub[v] = int64(load[v])
		for _, c := range t.children[v] {
			sub[v] += sub[c]
		}
	}
	return sub
}

// Degree returns the undirected degree of v within the switch network
// (children plus parent edge; the root's edge to d is counted).
func (t *Tree) Degree(v int) int { return len(t.children[v]) + 1 }
