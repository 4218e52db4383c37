package core

import (
	"sync/atomic"

	"soar/internal/topology"
)

// This file implements the structural solve cache behind the memoized
// SOAR engines (see DESIGN.md "Structural memoization"). Fat-tree-like
// evaluation topologies are overwhelmingly symmetric: in BT(2048)
// thousands of subtrees are pairwise isomorphic with identical loads,
// capacities and ρ-up profiles, yet the plain engines recompute every
// switch's nodeTables on every solve. A Memo groups switches into exact
// equivalence classes — switches whose computeNode inputs are provably
// identical — runs the DP once per class, and aliases the resulting
// tables across all class members. Because the representative runs the
// very same computeNode, the aliased tables, breadcrumbs and placements
// are bitwise identical to the unmemoized engines for every member.
//
// A class is the hash-consed tuple
//
//	(path digest, L(v), 1{subtree load > 0}, c(v), cap(v), children classes)
//
// where the path digest (topology.PathDigest) pins depth(v) and the full
// ρ-up vector, cap(v) is the effective budget the tables are clamped to,
// and the children classes appear in child order (the merge order and
// the split breadcrumbs depend on it, so unordered canonization would
// break bitwise traceback equality). Every component computeNode reads
// is in the tuple, and interning compares tuples exactly — this is
// hash-consing, not fingerprint hashing, so equal class ids imply equal
// inputs with no collision risk.
//
// Zero-load subtrees — the dominant case under sparse multi-tenant
// workloads — get a dedicated fast path: their tables are provably
// all-zero (red everywhere, zero potential, zero splits), so every such
// class is served by slicing one shared all-zero slab instead of
// running computeNode.
//
// Ownership: tables inserted into a Memo are immutable from then on.
// Engines alias them (struct copies sharing the backing slices) and must
// never write through them.

// defaultCacheBudget bounds the bytes a Memo retains before evicting.
const defaultCacheBudget = 256 << 20

// memo bookkeeping constants: rough per-entry overheads used for the
// byte budget (struct headers, slice headers).
const (
	memoEntryOverhead = 128
	sliceHeaderBytes  = 24
)

// classKey is the exact equivalence-class tuple of one switch. The
// children's class ids are inlined for the common fan-outs — kid0/kid1
// hold them directly for ≤ 2 children (-1 absent) — so interning a
// binary-tree switch costs one map operation, not one per cons cell.
// Wider switches fall back to the cons-list: kid0 is then the interned
// list id over all children and kid1 is listSentinel, a value no class
// id can take, so the two encodings can never collide.
type classKey struct {
	load    int64
	ecap    int64
	path    int32
	kid0    int32
	kid1    int32
	capw    int32
	hasLoad bool
}

// listSentinel marks kid0 as a cons-list id (> 2 children).
const listSentinel int32 = -2

// listKey interns child-class lists as cons cells.
type listKey struct{ prev, child int32 }

// cachedClass is one slot of the per-switch class cache: the last
// classKey interned at a switch and the id it resolved to. Hash-consing
// makes the memo exact, but on a warm solve the map lookups ARE the
// solve — and a switch's key stream is extremely repetitive (sparse
// churn leaves most switches in one of two states: their zero class and
// their last loaded class). A 2-slot direct-mapped cache in front of
// the map turns those into two struct compares.
type cachedClass struct {
	key classKey
	cid int32 // -1: empty slot
}

// memoEntry is one class: its canonical tables, once computed. The nt
// field is the aliasing contract of the cache made checkable: once an
// entry is published, engines share its backing slices, so only the
// constructors below may ever store through it.
type memoEntry struct {
	ok    bool
	bytes int64
	//soar:immutable
	nt nodeTables
}

// MemoStats reports a Memo's cumulative behavior.
type MemoStats struct {
	// Classes is the number of distinct equivalence classes interned in
	// the current epoch.
	Classes int
	// Hits and Misses count class-table lookups across all solves.
	Hits, Misses uint64
	// Bytes approximates the retained table storage.
	Bytes int64
	// Epoch counts evictions: it increments every time the byte budget
	// forces a full reset.
	Epoch uint64
}

// Memo is a reusable cache of class tables for one tree. It serves any
// number of solves — across differing loads, availability sets,
// capacity vectors and budgets k — and keeps warm tables between them,
// so request streams with recurring structure (symmetric topologies,
// churning sparse tenants) skip most of the DP.
//
// A Memo is NOT safe for concurrent use: share one per goroutine.
//
// Stats is the one exception to the single-goroutine rule: its
// counters (classes, hits, misses, bytes, epoch) are atomics, so any
// goroutine may read Stats while the owning goroutine solves. The
// values form no consistent cut (a reader may see a miss counted before
// its bytes land), but each one is a valid point-in-time read.
type Memo struct {
	t      *topology.Tree
	budget int64
	epoch  atomic.Uint64

	classes map[classKey]int32
	lists   map[listKey]int32
	entries []memoEntry
	// nclasses mirrors len(entries) atomically: Stats must not read the
	// entries slice header while the owner appends to it.
	nclasses atomic.Int64

	hits, misses atomic.Uint64
	bytes        atomic.Int64

	sc    *scratch
	scCap int
	cbuf  []*nodeTables

	// ccache is the per-switch 2-way class cache (2 slots per switch,
	// most recent first); see cachedClass. Invalidated on Reset: slot
	// hits must never resurrect a pre-eviction class id.
	ccache []cachedClass

	// slab backs the class tables computed on misses (newNodeStorageSlab):
	// classes interned together share chunks, so a warm epoch's working
	// set is a few dense slabs instead of thousands of small objects.
	slab slabAlloc

	// Reused per-solve scratch (effective caps, subtree loads, class
	// ids): a warm gather allocates nothing but the returned Tables.
	ecapsBuf []int
	subBuf   []int64
	classBuf []int32

	// Shared all-zero storage for the zero-load fast path. Grows to the
	// largest table shape seen; superseded slabs stay referenced by the
	// tables sliced from them (still all zeros, still immutable).
	//soar:immutable
	zeroX []float64
	//soar:immutable
	zeroIsBlue []bool
	//soar:immutable
	zeroSplits []int32
}

// NewMemo returns an empty solve cache for tree t with the default
// eviction budget.
func NewMemo(t *topology.Tree) *Memo {
	m := &Memo{
		t:       t,
		budget:  defaultCacheBudget,
		classes: make(map[classKey]int32),
		lists:   make(map[listKey]int32),
		ccache:  make([]cachedClass, 2*t.N()),
	}
	for i := range m.ccache {
		m.ccache[i].cid = -1
	}
	return m
}

// SetBudget sets the byte budget above which the next solve evicts the
// cache (full reset). Non-positive values are ignored.
func (m *Memo) SetBudget(bytes int64) {
	if bytes > 0 {
		m.budget = bytes
	}
}

// Stats returns the memo's cumulative counters. Unlike every other
// method, Stats is safe to call from any goroutine while the owner
// solves: each counter is read atomically (see the type comment for
// the consistency caveat).
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Classes: int(m.nclasses.Load()),
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Bytes:   m.bytes.Load(),
		Epoch:   m.epoch.Load(),
	}
}

// Reset evicts every cached class and bumps the epoch. Tables already
// handed out stay valid: they are immutable and keep their backing slabs
// alive.
func (m *Memo) Reset() {
	m.epoch.Add(1)
	clear(m.classes)
	clear(m.lists)
	m.entries = m.entries[:0]
	for i := range m.ccache {
		m.ccache[i].cid = -1 // stale class ids must never hit
	}
	m.nclasses.Store(0)
	m.bytes.Store(0)
}

// maybeEvict resets the memo when the retained bytes exceed the budget.
// Called between solves only, never mid-solve.
//
//soar:hotpath
func (m *Memo) maybeEvict() {
	if m.bytes.Load() > m.budget {
		m.Reset() //soar:coldpath eviction
	}
}

// internList interns one cons cell of a child-class list.
//
//soar:hotpath
func (m *Memo) internList(prev, child int32) int32 {
	key := listKey{prev, child}
	id, ok := m.lists[key]
	if !ok {
		id = int32(len(m.lists))
		m.lists[key] = id
	}
	return id
}

// internClass interns a class tuple, growing the entry table on first
// sight.
//
//soar:hotpath
func (m *Memo) internClass(key classKey) int32 {
	id, ok := m.classes[key]
	if !ok {
		id = int32(len(m.entries))
		m.classes[key] = id
		m.entries = append(m.entries, memoEntry{})
		m.nclasses.Add(1)
	}
	return id
}

// classKeyFor builds the class tuple of one switch: the first two
// children's class ids inline (in child order — merge order and split
// breadcrumbs depend on it), a cons-list id for wider fan-outs.
//
//soar:hotpath
func (m *Memo) classKeyFor(v int, classOf, pd []int32, loadV int, hasLoad bool, capw, ecap int) classKey {
	kids := m.t.Children(v)
	k0, k1 := int32(-1), int32(-1)
	switch len(kids) {
	case 0:
	case 1:
		k0 = classOf[kids[0]]
	case 2:
		k0, k1 = classOf[kids[0]], classOf[kids[1]]
	default:
		cons := int32(-1)
		for _, c := range kids {
			cons = m.internList(cons, classOf[c])
		}
		k0, k1 = cons, listSentinel
	}
	return classKey{
		load:    int64(loadV),
		ecap:    int64(ecap),
		path:    pd[v],
		kid0:    k0,
		kid1:    k1,
		capw:    int32(capw),
		hasLoad: hasLoad,
	}
}

// internClassFor classifies one switch: build its class tuple, then
// resolve it to a class id — through the per-switch cache when the
// switch was recently in the same state, through the hash-consing map
// otherwise. Every call site that classifies a switch — the serial and
// the batch gather — MUST go through this single helper: table aliasing
// is sound only if all paths derive identical keys from identical
// components.
//
//soar:hotpath
func (m *Memo) internClassFor(v int, classOf, pd []int32, loadV int, hasLoad bool, capw, ecap int) int32 {
	key := m.classKeyFor(v, classOf, pd, loadV, hasLoad, capw, ecap)
	s0 := &m.ccache[2*v]
	if s0.cid >= 0 && s0.key == key {
		return s0.cid
	}
	s1 := &m.ccache[2*v+1]
	if s1.cid >= 0 && s1.key == key {
		*s0, *s1 = *s1, *s0 // promote: keep the most recent state first
		return s0.cid
	}
	cid := m.internClass(key)
	*s1 = *s0
	*s0 = cachedClass{key, cid}
	return cid
}

// ensureScratch sizes the merge scratch and the shared zero slabs for
// a solve whose root effective cap is maxCap — the widest row any node
// can need (cap(v) ≤ cap(root) for all v), so sizing from it instead of
// the raw budget keeps huge-k/sparse-Λ solves cheap. The zero slabs are
// pre-sized to the largest table shape the tree can produce under
// maxCap, so every zero-load class of a solve slices the same slab (the
// aliasing the sparse fast path promises) instead of racing a growing
// one.
//
//soar:hotpath
//soar:ctor grows the shared zero slabs
func (m *Memo) ensureScratch(maxCap int) {
	if m.sc == nil || m.scCap < maxCap {
		m.sc = newScratch(maxCap) //soar:coldpath first use or cap raise
		m.scCap = maxCap
	}
	sz := tableCells(m.t.Height()+1, maxCap) // depth ≤ height+1, cap ≤ maxCap
	if len(m.zeroX) < sz {
		m.zeroX = make([]float64, sz)   //soar:coldpath first use or cap raise
		m.zeroIsBlue = make([]bool, sz) //soar:coldpath first use or cap raise
	}
	if len(m.zeroSplits) < sz {
		m.zeroSplits = make([]int32, sz) //soar:coldpath first use or cap raise
	}
}

// zeroTable builds the canonical trivial table of a zero-load subtree:
// X ≡ 0, red everywhere, zero splits — exactly what computeNode produces
// when no message ever leaves the subtree. All zero classes slice the
// same shared slabs, so the fast path allocates only the split headers.
func (m *Memo) zeroTable(depth, capw, ecap, numChildren int) (nodeTables, int64) {
	sz := tableCells(depth, ecap)
	nt := nodeTables{
		cap:    ecap,
		capw:   capw,
		x:      m.zeroX[:sz:sz],
		isBlue: m.zeroIsBlue[:sz:sz],
	}
	bytes := int64(memoEntryOverhead)
	if merges := numChildren - 1; merges > 0 {
		nt.splits = make([][]int32, merges)
		for i := range nt.splits {
			nt.splits[i] = m.zeroSplits[:sz:sz]
		}
		bytes += int64(merges) * sliceHeaderBytes
	}
	return nt, bytes
}

// tableBytes approximates the retained storage of a computed table.
func tableBytes(nt *nodeTables) int64 {
	b := int64(memoEntryOverhead) + int64(len(nt.x))*9 // 8B float64 + 1B bool
	for _, sp := range nt.splits {
		b += int64(len(sp))*4 + sliceHeaderBytes
	}
	return b
}

// computeEntry fills entry e for a class, with v as its representative.
// Zero-load classes take the shared-slab fast path; loaded classes run
// the ordinary computeNode into fresh memo-owned storage.
//
//soar:ctor publishes memoEntry.nt
func (m *Memo) computeEntry(e *memoEntry, v, loadV int, hasLoad bool, capw, ecap int, children []*nodeTables, sc *scratch) {
	if !hasLoad {
		e.nt, e.bytes = m.zeroTable(m.t.Depth(v), capw, ecap, m.t.NumChildren(v))
	} else {
		nt := newNodeStorageSlab(&m.slab, m.t.Depth(v), ecap, m.t.NumChildren(v))
		computeNode(m.t, v, loadV, hasLoad, capw, &nt, children, sc)
		e.nt = nt
		e.bytes = tableBytes(&nt)
	}
	e.ok = true
	m.bytes.Add(e.bytes)
}

// gather is the memoized SOAR-Gather behind the entry points below: one
// bottom-up pass interns every switch's class and computes each class
// table at most once. Inputs are already validated and k ≥ 0.
func (m *Memo) gather(load []int, avail []bool, caps []int, k int) *Tables {
	m.maybeEvict()
	t := m.t
	n := t.N()
	classOf := m.classScratch()
	ecaps, subLoad := m.solveScratch()
	pd := t.PathDigests()
	k64 := int64(k)
	tb := &Tables{t: t, load: load, k: k, nodes: make([]nodeTables, n)}
	// The atomic hit/miss counters batch per solve: Stats readers only
	// need monotone totals, and per-switch atomic adds were measurable
	// on the warm path. Effective caps and subtree loads are postorder
	// recurrences over the very values this loop walks, so they fuse
	// into the classification sweep instead of running as two extra
	// O(n) passes (the clamp matches effectiveCaps: children are
	// already clamped to k, so the int64 sum cannot wrap).
	var hits, misses uint64
	scratchReady := false
	for _, v := range t.PostOrder() {
		capw := capAt(avail, caps, v)
		sub := int64(load[v])
		c := int64(capw)
		for _, ch := range t.Children(v) {
			sub += subLoad[ch]
			c += int64(ecaps[ch])
		}
		if c > k64 {
			c = k64
		}
		ecap := int(c)
		ecaps[v] = ecap
		subLoad[v] = sub
		hasLoad := sub > 0
		cid := m.internClassFor(v, classOf, pd, load[v], hasLoad, capw, ecap)
		classOf[v] = cid
		e := &m.entries[cid]
		if !e.ok {
			misses++
			if !scratchReady {
				// Sized from the root cap = min(k, whole-tree capacity),
				// which bounds every cap this solve can see.
				m.ensureScratch(effectiveCapRoot(t, avail, caps, k)) //soar:coldpath miss in this solve
				scratchReady = true
			}
			m.cbuf = m.cbuf[:0]
			for _, ch := range t.Children(v) {
				m.cbuf = append(m.cbuf, &m.entries[classOf[ch]].nt)
			}
			m.computeEntry(e, v, load[v], hasLoad, capw, ecap, m.cbuf, m.sc)
		} else {
			hits++
		}
		tb.nodes[v] = e.nt
	}
	m.hits.Add(hits)
	m.misses.Add(misses)
	return tb
}

// classScratch returns the memo-owned class-id buffer of one solve.
//
//soar:hotpath
func (m *Memo) classScratch() []int32 {
	if len(m.classBuf) != m.t.N() {
		m.classBuf = make([]int32, m.t.N()) //soar:coldpath first use
	}
	return m.classBuf
}

// solveScratch returns the memo-owned effective-caps and subtree-load
// buffers recomputed by every solve.
//
//soar:hotpath
func (m *Memo) solveScratch() ([]int, []int64) {
	if len(m.ecapsBuf) != m.t.N() {
		m.ecapsBuf = make([]int, m.t.N()) //soar:coldpath first use
		m.subBuf = make([]int64, m.t.N()) //soar:coldpath first use
	}
	return m.ecapsBuf, m.subBuf
}

// GatherMemo is Gather through the solve cache: tables, breadcrumbs and
// placements are bitwise identical to Gather on the same inputs, but the
// DP runs once per equivalence class instead of once per switch, and a
// warm memo skips even that.
func GatherMemo(m *Memo, load []int, avail []bool, k int) *Tables {
	validate(m.t, load, avail)
	if k < 0 {
		k = 0
	}
	return m.gather(load, avail, nil, k)
}

// SolveMemo is Solve through the solve cache; the placement is bitwise
// identical to Solve.
func SolveMemo(m *Memo, load []int, avail []bool, k int) Result {
	tb := GatherMemo(m, load, avail, k)
	blue, cost := ColorPhase(tb)
	return Result{Blue: blue, Cost: cost}
}

// SolveMemoCaps is SolveCaps through the solve cache. One Memo may serve
// uniform and capacity-vector solves interchangeably: the class tuples
// carry the weights.
func SolveMemoCaps(m *Memo, load []int, caps []int, k int) Result {
	validateCaps(m.t, load, caps)
	if k < 0 {
		k = 0
	}
	blue, cost := ColorPhase(m.gather(load, nil, caps, k))
	return Result{Blue: blue, Cost: cost}
}
