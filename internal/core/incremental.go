package core

import (
	"fmt"

	"soar/internal/topology"
)

// Incremental is a stateful SOAR engine for online settings: it keeps the
// SOAR-Gather tables of one tree alive across a stream of point updates
// to the load vector and the availability set, recomputing only the
// tables invalidated by each change.
//
// A switch's table depends solely on its children's tables and its own
// (load, availability, subtree-load) inputs, so an update at v dirties
// exactly the v→root path. Flushing a batch recomputes each dirty switch
// once, children before parents, via the same computeNode as the full
// Gather — the tables are therefore bitwise identical to a from-scratch
// Gather on the current inputs, and Solve returns the same placement.
//
// Costs: an update dirties ≤ h(T)+1 switches; recomputing switch v costs
// O(Depth(v)·Σ_m cap_prefix·cap[c_m]) with the effective-budget clamping
// of computeNode (at most O(Depth(v)·C(v)·k²), usually far less), so one
// flushed update is roughly O(h²·C·k) versus the full sweep's O(n·h·k) —
// a ~n/h saving (about two orders of magnitude on the paper's BT(2048)).
// Load-free children cost no merge (the merge identity of computeNode),
// and a switch whose subtree lost its last load only clears its tables,
// so re-pointing a warm engine from one sparse tenant to another costs
// the merges of the two tenants' loaded spines, not of the whole paths.
// The engine maintains the subtree capacity sums Σ_{u ∈ T_v} c(u) under
// SetAvail/SetCap, so the caps the tables are clamped to always match a
// from-scratch EffectiveCaps/EffectiveCapsVec. Batched updates coalesce:
// paths sharing a prefix mark each shared switch once, so b leaf updates
// cost at most min(b·h, n) node recomputations in one flush. Recomputed
// tables reuse their existing backing arrays and one engine-lifetime
// merge scratch, so steady-state flushes are allocation-free.
//
// The zero value is not usable; construct with NewIncremental (uniform
// model) or NewIncrementalCaps (heterogeneous capacities). The engine is
// not safe for concurrent use.
type Incremental struct {
	t       *topology.Tree
	load    []int   // owned copy; also aliased by tb.load
	caps    []int   // owned capacity weights, never nil (0/1 in the uniform model)
	subLoad []int64 // subtree loads, maintained under UpdateLoad
	capSum  []int64 // Σ_{u ∈ T_v} caps[u] (int64: exact even for MaxCapacity weights on 32-bit); cap[v] = min(k, capSum[v])
	k       int
	tb      *Tables
	dirty   []bool
	queue   []int   // dirty switches, unordered; invariant: upward-closed
	dcount  []int32 // depth-bucket counters for the flush order (len height+2)
	qbuf    []int   // scatter buffer for the counting sort
	sc      *scratch
	scCap   int           // the root effective cap sc is sized for
	cbuf    []*nodeTables // reusable child-table buffer for flushes
	cs      colorState    // reusable SOAR-Color scratch for SolveInto
	flushed int           // switches the last non-empty flush (or the constructing Gather) recomputed
}

// NewIncremental runs one full SOAR-Gather and returns an engine holding
// its tables. avail == nil means every switch may be blue; load and avail
// are copied, so later caller mutations do not affect the engine. A
// negative k is treated as 0.
func NewIncremental(t *topology.Tree, load []int, avail []bool, k int) *Incremental {
	validate(t, load, avail)
	return newIncremental(t, load, capsFromAvail(t, avail), k)
}

// NewIncrementalCaps is NewIncremental under the heterogeneous capacity
// model (see SolveCaps): a blue at v consumes caps[v] budget units,
// caps[v] = 0 means v may never be blue, and caps == nil means every
// switch has capacity 1. caps is copied; mutate the engine's view with
// SetCap.
func NewIncrementalCaps(t *topology.Tree, load []int, caps []int, k int) *Incremental {
	validateCaps(t, load, caps)
	return newIncremental(t, load, copyCaps(t, caps), k)
}

// capsFromAvail lowers a uniform-model availability set (already
// validated; nil = all available) to the 0/1 capacity vector the engine
// owns.
func capsFromAvail(t *topology.Tree, avail []bool) []int {
	caps := make([]int, t.N())
	for v := range caps {
		if isAvail(avail, v) {
			caps[v] = 1
		}
	}
	return caps
}

// copyCaps returns an engine-owned copy of a (validated) capacity
// vector; nil means capacity 1 everywhere.
func copyCaps(t *topology.Tree, caps []int) []int {
	owned := make([]int, t.N())
	if caps == nil {
		for v := range owned {
			owned[v] = 1
		}
	} else {
		copy(owned, caps)
	}
	return owned
}

// newIncremental takes ownership of caps (already validated, never
// nil).
func newIncremental(t *topology.Tree, load []int, caps []int, k int) *Incremental {
	if k < 0 {
		k = 0
	}
	n := t.N()
	inc := &Incremental{
		t:     t,
		load:  append([]int(nil), load...),
		caps:  caps,
		k:     k,
		dirty: make([]bool, n),
	}
	inc.subLoad = t.SubtreeLoads(inc.load)
	inc.capSum = make([]int64, n)
	for _, v := range t.PostOrder() {
		s := int64(caps[v])
		for _, ch := range t.Children(v) {
			s += inc.capSum[ch]
		}
		inc.capSum[v] = s
	}
	inc.scCap = inc.cap(t.Root())
	inc.sc = newScratch(inc.scCap)
	inc.tb = gatherSerial(t, inc.load, nil, inc.caps, k)
	inc.flushed = n
	return inc
}

// cap returns the effective budget min(k, Σ_{u ∈ T_v} c(u)) under the
// engine's current capacity vector.
//
//soar:hotpath
func (inc *Incremental) cap(v int) int {
	return int(min(int64(inc.k), inc.capSum[v]))
}

// K returns the budget the engine solves for.
func (inc *Incremental) K() int { return inc.k } //soar:hotpath

// Tree returns the tree the engine operates on.
func (inc *Incremental) Tree() *topology.Tree { return inc.t } //soar:hotpath

// Load returns the engine's current load at switch v.
func (inc *Incremental) Load(v int) int { return inc.load[v] } //soar:hotpath

// Loads returns a copy of the engine's current load vector.
func (inc *Incremental) Loads() []int { return append([]int(nil), inc.load...) }

// Avail reports whether switch v is currently available (v ∈ Λ, i.e. its
// capacity weight is positive).
func (inc *Incremental) Avail(v int) bool { return inc.caps[v] > 0 } //soar:hotpath

// Capacity returns the engine's current capacity weight of switch v (the
// budget a blue at v consumes; 0 means v may never be blue).
func (inc *Incremental) Capacity(v int) int { return inc.caps[v] } //soar:hotpath

// Capacities returns a copy of the engine's current capacity vector.
func (inc *Incremental) Capacities() []int { return append([]int(nil), inc.caps...) }

// Pending returns the number of switches whose tables are stale; it is
// zero right after a flush (Flush, Solve, Cost or Tables).
func (inc *Incremental) Pending() int { return len(inc.queue) } //soar:hotpath

// Recomputed returns how many switches' tables the engine's most recent
// recomputation covered: the dirty-path length of a flushed sparse
// update, N for a dense re-point and for the constructing Gather. A
// flush with nothing pending leaves it alone. It is what the Gather half
// of a solve's cost is proportional to.
func (inc *Incremental) Recomputed() int { return inc.flushed } //soar:hotpath

// UpdateLoad adds delta to the load of switch v and marks the v→root
// path dirty. It panics if the load would become negative. The
// recomputation is deferred until the next flush, so consecutive updates
// batch.
//
//soar:hotpath
func (inc *Incremental) UpdateLoad(v, delta int) {
	if delta == 0 {
		return
	}
	if inc.load[v]+delta < 0 {
		panic(fmt.Sprintf("core: incremental update drives switch %d load to %d", v, inc.load[v]+delta))
	}
	inc.load[v] += delta
	for u := v; ; u = inc.t.Parent(u) {
		inc.subLoad[u] += int64(delta)
		inc.markDirty(u)
		if u == inc.t.Root() {
			return
		}
	}
}

// SetLoad sets the load of switch v to value (a convenience wrapper
// around UpdateLoad).
//
//soar:hotpath
func (inc *Incremental) SetLoad(v, value int) {
	if value < 0 {
		panic(fmt.Sprintf("core: incremental SetLoad(%d, %d): negative load", v, value))
	}
	inc.UpdateLoad(v, value-inc.load[v])
}

// SetAvail inserts v into (ok == true) or removes v from (ok == false)
// the availability set Λ, marking the v→root path dirty: the uniform-
// model wrapper of SetCap, setting the capacity weight to 1 or 0. A
// no-op change dirties nothing. On an engine tracking heterogeneous
// capacities, SetAvail(v, true) resets c(v) to 1 — use SetCap to restore
// a different weight.
//
//soar:hotpath
func (inc *Incremental) SetAvail(v int, ok bool) {
	c := 0
	if ok {
		c = 1
	}
	inc.SetCap(v, c)
}

// SetCap sets the capacity weight of switch v to c (≥ 0; 0 removes v
// from Λ), marking the v→root path dirty. A no-op change dirties
// nothing.
//
//soar:hotpath
func (inc *Incremental) SetCap(v, c int) {
	if c < 0 || c > MaxCapacity {
		panic(fmt.Sprintf("core: incremental SetCap(%d, %d): capacity outside [0, %d]", v, c, MaxCapacity))
	}
	delta := int64(c) - int64(inc.caps[v])
	if delta == 0 {
		return
	}
	inc.caps[v] = c
	for u := v; ; u = inc.t.Parent(u) {
		inc.capSum[u] += delta
		inc.markDirty(u)
		if u == inc.t.Root() {
			return
		}
	}
}

// SetLoads patches the engine's whole load vector to equal loads,
// dirtying only the root paths of switches whose load actually changed.
// It is the bulk reset used by pooled engines (internal/sched): repointing
// a warm engine at a different tenant's load vector costs one O(n)
// comparison scan plus recomputation of the changed paths only, instead
// of a from-scratch Gather.
//
//soar:hotpath
func (inc *Incremental) SetLoads(loads []int) {
	if len(loads) != inc.t.N() {
		panic(fmt.Sprintf("core: incremental SetLoads has %d entries for %d switches", len(loads), inc.t.N()))
	}
	for v, l := range loads {
		if l != inc.load[v] {
			inc.SetLoad(v, l)
		}
	}
}

// SetAvails patches the engine's availability set to equal avail
// (nil means every switch available), dirtying only the root paths of
// switches whose membership in Λ actually changed — the bulk companion
// of SetLoads for engine pooling. Like SetAvail, it is a uniform-model
// operation: every available switch's capacity weight becomes 1, so on
// an engine tracking heterogeneous capacities it discards the weights —
// use SetCap per switch to patch those instead.
//
//soar:hotpath
func (inc *Incremental) SetAvails(avail []bool) {
	if avail != nil && len(avail) != inc.t.N() {
		panic(fmt.Sprintf("core: incremental SetAvails has %d entries for %d switches", len(avail), inc.t.N()))
	}
	for v := 0; v < inc.t.N(); v++ {
		inc.SetAvail(v, isAvail(avail, v))
	}
}

// markDirty enqueues u once. Because every mutation marks a full
// suffix-path up to the root, the dirty set is upward-closed; callers
// that walk upward may stop at the first already-dirty switch.
//
//soar:hotpath
func (inc *Incremental) markDirty(u int) {
	if !inc.dirty[u] {
		inc.dirty[u] = true
		inc.queue = append(inc.queue, u)
	}
}

// Flush recomputes every dirty table, children before parents. Shared
// path prefixes from a batch of updates are recomputed once.
//
//soar:hotpath
func (inc *Incremental) Flush() {
	if len(inc.queue) == 0 {
		return
	}
	inc.flushed = len(inc.queue)
	inc.orderQueue()
	if rootCap := inc.cap(inc.t.Root()); rootCap > inc.scCap {
		// SetCap raised the root's capacity sum past the width the merge
		// scratch was built for: regrow it (rare; capacity raises only).
		inc.scCap = rootCap
		inc.sc = newScratch(rootCap) //soar:coldpath capacity raise
	}
	for _, v := range inc.queue {
		// Reuse the node's existing backing arrays (resized if SetAvail
		// moved its cap), plus the engine-lifetime merge scratch and
		// child buffer: a steady-state flush allocates nothing.
		nt := &inc.tb.nodes[v]
		ensureNodeStorage(nt, inc.t.Depth(v), inc.cap(v), inc.t.NumChildren(v))
		inc.cbuf = appendChildTables(inc.cbuf[:0], inc.tb, v)
		computeNode(inc.t, v, inc.load[v], inc.subLoad[v] > 0,
			inc.caps[v], nt, inc.cbuf, inc.sc)
		inc.dirty[v] = false
	}
	inc.queue = inc.queue[:0]
}

// orderQueue orders the dirty queue deeper switches first; a parent on
// the queue is always strictly shallower than its dirty children, so
// this is a valid bottom-up order over the (upward-closed) dirty set.
// Depths are bounded by the tree height, so a counting sort over
// engine-owned depth buckets replaces the comparison sort: O(q + h),
// no comparator calls, no allocation once warm.
//
//soar:hotpath
func (inc *Incremental) orderQueue() {
	t := inc.t
	if inc.dcount == nil {
		inc.dcount = make([]int32, t.Height()+2) //soar:coldpath first flush
	}
	maxd := 0
	for _, v := range inc.queue {
		d := t.Depth(v)
		inc.dcount[d]++
		if d > maxd {
			maxd = d
		}
	}
	pos := int32(0)
	for d := maxd; d >= 0; d-- { // deepest bucket first
		c := inc.dcount[d]
		inc.dcount[d] = pos
		pos += c
	}
	if cap(inc.qbuf) < len(inc.queue) {
		inc.qbuf = make([]int, len(inc.queue)) //soar:coldpath queue grew
	}
	qb := inc.qbuf[:len(inc.queue)]
	for _, v := range inc.queue {
		d := t.Depth(v)
		qb[inc.dcount[d]] = v
		inc.dcount[d]++
	}
	copy(inc.queue, qb)
	for d := 0; d <= maxd; d++ {
		inc.dcount[d] = 0 // leave the buckets clean for the next flush
	}
}

// Cost flushes pending updates and returns the optimal utilization
// φ-BIC(T, L, Λ, k) for the current inputs.
//
//soar:hotpath
func (inc *Incremental) Cost() float64 {
	inc.Flush()
	return inc.tb.Optimum()
}

// Solve flushes pending updates and runs SOAR-Color over the maintained
// tables, returning the same placement a from-scratch Solve would.
func (inc *Incremental) Solve() Result {
	inc.Flush()
	blue, cost := ColorPhase(inc.tb)
	return Result{Blue: blue, Cost: cost}
}

// SolveInto is Solve writing the optimal blue set into a caller-owned
// buffer (which must have length N) and returning φ. It reuses the
// engine's color scratch and the engine's maintained subtree loads to
// skip zero-load subtrees (colorIntoSparse — identical placement), so a
// steady-state admission — SetLoads / SetAvails followed by SolveInto —
// performs no allocations and touches O(loaded spine) switches in the
// traceback.
//
//soar:hotpath
func (inc *Incremental) SolveInto(blue []bool) float64 {
	inc.Flush()
	return inc.cs.colorIntoSparse(inc.tb, blue, inc.subLoad)
}

// Tables flushes pending updates and exposes the maintained DP state.
// The returned tables stay owned by the engine: they are valid until the
// next mutating call.
//
//soar:hotpath
func (inc *Incremental) Tables() *Tables {
	inc.Flush()
	return inc.tb
}
