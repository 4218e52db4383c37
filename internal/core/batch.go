package core

import (
	"fmt"

	"soar/internal/topology"
)

// This file implements the fused batch mode of the memoized engine (see
// DESIGN.md "SoA merge kernel"): solving B sparse instances that share
// one availability set and budget in one pass over the tree, instead of
// one full gather per instance.
//
// The observation is that sparse multi-tenant instances agree almost
// everywhere: a tenant loading a handful of racks leaves every other
// subtree at zero load, and all zero-load subtrees of all instances of
// the batch belong to the same per-switch equivalence class — the class
// of the all-zero instance, whose tables are served from the memo's
// shared zero slab. A BatchSolver therefore classifies the all-zero
// instance once per batch (the zclass pass) and then sweeps the tree
// node-outer: at each switch it touches each instance just long enough
// to roll up its subtree load, and only the instances whose subtree is
// loaded at that switch pay for class interning. Everything the
// instances share — effective caps, path digests, the zero classes, the
// per-switch class cache line — is computed once and stays hot while
// the inner loop runs over instances.
//
// The traceback then reads tables through the class ids directly
// (&memo.entries[classOf[v]].nt) instead of materializing a per-instance
// Tables value, and skips zero-load subtrees like colorIntoSparse (they
// are provably all-red). Placements and costs are bitwise identical to
// running Solve per instance: every class id resolves through the same
// internClassFor contract, so the aliased tables are the very tables a
// per-instance solve would have read.

// BatchSolver solves batches of instances sharing one availability set
// and budget against one Memo. It retains its per-instance scratch
// (subtree loads, class ids) across calls, so a steady stream of
// equally-shaped batches allocates nothing. Like the Memo it wraps, a
// BatchSolver is not safe for concurrent use.
type BatchSolver struct {
	m *Memo

	ecaps   []int
	zclass  []int32
	sub     [][]int64
	classOf [][]int32
	cs      colorState
}

// NewBatchSolver returns a batch solver over m. The memo may be shared
// with other (non-concurrent) engines; batch solves intern into the same
// class space, so tables warmed by single solves serve batches and vice
// versa.
func NewBatchSolver(m *Memo) *BatchSolver {
	return &BatchSolver{m: m}
}

// ensure sizes the per-batch scratch for B instances over n switches.
//
//soar:hotpath
func (bs *BatchSolver) ensure(n, B int) {
	if len(bs.ecaps) != n {
		bs.ecaps = make([]int, n)    //soar:coldpath first use
		bs.zclass = make([]int32, n) //soar:coldpath first use
	}
	for len(bs.sub) < B {
		bs.sub = append(bs.sub, make([]int64, n))         //soar:coldpath batch grew
		bs.classOf = append(bs.classOf, make([]int32, n)) //soar:coldpath batch grew
	}
}

// Solve solves every instance of the batch: loads[b] is instance b's
// per-switch load vector, and all instances share the availability set
// avail (nil: every switch available) and budget k. The optimal blue
// set of instance b is written into blue[b] (length N) and its cost φ
// into costs[b]. Placements and costs are bitwise identical to calling
// Solve / SolveMemo per instance on the same inputs.
//
//soar:hotpath
func (bs *BatchSolver) Solve(loads [][]int, avail []bool, k int, blue [][]bool, costs []float64) {
	m := bs.m
	t := m.t
	n := t.N()
	B := len(loads)
	if len(blue) != B || len(costs) != B {
		panic(fmt.Sprintf("core: batch of %d instances with %d blue and %d cost slots", B, len(blue), len(costs)))
	}
	for b := range loads {
		validate(t, loads[b], avail)
		if len(blue[b]) != n {
			panic(fmt.Sprintf("core: batch blue[%d] has %d entries for %d switches", b, len(blue[b]), n))
		}
	}
	if k < 0 {
		k = 0
	}
	if B == 0 {
		return
	}
	m.maybeEvict()
	bs.ensure(n, B)
	pd := t.PathDigests()
	effectiveCapsInto(bs.ecaps, t, avail, nil, k)

	var hits, misses uint64
	scratchReady := false
	// Zero pass: intern the class of every switch in the all-zero
	// instance. These are the classes every zero-load subtree of every
	// instance resolves to, and interning them up front means the loaded
	// pass can assign them by plain copy.
	for _, v := range t.PostOrder() {
		capw := capAt(avail, nil, v)
		cid := m.internClassFor(v, bs.zclass, pd, 0, false, capw, bs.ecaps[v])
		bs.zclass[v] = cid
		e := &m.entries[cid]
		if !e.ok { //soar:coldpath cache miss: compute into fresh immutable storage
			misses++
			if !scratchReady {
				m.ensureScratch(bs.ecaps[t.Root()])
				scratchReady = true
			}
			m.computeEntry(e, v, 0, false, capw, bs.ecaps[v], nil, m.sc)
		} else {
			hits++
		}
	}
	// Loaded pass, node-outer: one postorder traversal total. Per switch,
	// each instance rolls up its subtree load; instances at zero copy the
	// switch's zero class, the (few) loaded ones intern. The per-switch
	// class cache stays hot across the inner loop: sparse batches whose
	// loaded instances put a switch in the same state resolve on the
	// cached slot after the first.
	for _, v := range t.PostOrder() {
		capw := capAt(avail, nil, v)
		ecap := bs.ecaps[v]
		kids := t.Children(v)
		zc := bs.zclass[v]
		for b := 0; b < B; b++ {
			sub := int64(loads[b][v])
			for _, ch := range kids {
				sub += bs.sub[b][ch]
			}
			bs.sub[b][v] = sub
			if sub == 0 {
				bs.classOf[b][v] = zc
				continue
			}
			cid := m.internClassFor(v, bs.classOf[b], pd, loads[b][v], true, capw, ecap)
			bs.classOf[b][v] = cid
			e := &m.entries[cid]
			if !e.ok { //soar:coldpath cache miss: compute into fresh immutable storage
				misses++
				if !scratchReady {
					m.ensureScratch(bs.ecaps[t.Root()])
					scratchReady = true
				}
				m.cbuf = m.cbuf[:0]
				for _, ch := range kids {
					m.cbuf = append(m.cbuf, &m.entries[bs.classOf[b][ch]].nt)
				}
				m.computeEntry(e, v, loads[b][v], true, capw, ecap, m.cbuf, m.sc)
			} else {
				hits++
			}
		}
	}
	m.hits.Add(hits)
	m.misses.Add(misses)

	for b := 0; b < B; b++ {
		costs[b] = bs.cs.colorClasses(t, m.entries, bs.classOf[b], bs.sub[b], k, blue[b])
	}
}

// colorClasses is the class-indirect sparse traceback of the batch
// solver: SOAR-Color reading tables through class ids instead of a
// materialized Tables value, skipping zero-load subtrees (provably
// all-red — see colorIntoSparse).
//
//soar:hotpath
func (cs *colorState) colorClasses(t *topology.Tree, entries []memoEntry, classOf []int32, subLoad []int64, k int, blue []bool) float64 {
	root := t.Root()
	opt := entries[classOf[root]].nt.at(1, k)
	for i := range blue {
		blue[i] = false
	}
	if subLoad[root] == 0 {
		return opt
	}
	cs.stack = append(cs.stack[:0], colorFrame{root, k, 1})
	for len(cs.stack) > 0 {
		f := cs.stack[len(cs.stack)-1]
		cs.stack = cs.stack[:len(cs.stack)-1]
		isBlue, childBudget, childL := decide(t, &entries[classOf[f.v]].nt, f.v, f.i, f.l, cs.budget[:0])
		blue[f.v] = isBlue
		for m, c := range t.Children(f.v) {
			if subLoad[c] > 0 {
				cs.stack = append(cs.stack, colorFrame{c, childBudget[m], childL})
			}
		}
		cs.budget = childBudget[:0]
	}
	return opt
}
