package core

import (
	"fmt"

	"soar/internal/topology"
)

// decide performs one switch's SOAR-Color step: given the budget i and
// barrier distance l received from the parent, it returns the switch's
// color and, for each child in order, the (budget, l) pair to forward.
// Shared by ColorPhase and the TCP cluster engine (through NodeState).
//
// Budgets above nt.cap read the cap column of the tables and breadcrumbs
// (identical by the clamping invariant), but the leftover bookkeeping
// still runs on the full budget, so the forwarded numbers match the
// unbounded DP exactly.
//
// childBudget is built by appending to dst, so a caller looping over a
// whole tree can pass a reused buffer (ColorPhase does); pass nil for
// fresh storage when the slice outlives the call.
//
//soar:hotpath
func decide(t *topology.Tree, nt *nodeTables, v, budget, l int, dst []int) (isBlue bool, childBudget []int, childL int) {
	isBlue = nt.blueAt(l, budget)
	children := t.Children(v)
	if len(children) == 0 {
		return isBlue, dst, 0 // dst untouched, so a looping caller keeps its capacity
	}
	childL = l + 1
	if isBlue {
		childL = 1
	}
	childBudget = dst
	for range children {
		childBudget = append(childBudget, 0)
	}
	remaining := budget
	for m := len(children) - 1; m >= 1; m-- {
		j := nt.splitAt(m-1, isBlue, l, remaining)
		childBudget[m] = j
		remaining -= j
	}
	if isBlue {
		remaining -= nt.capw // a blue v consumes its capacity weight (1 uniform)
	}
	childBudget[0] = remaining
	return isBlue, childBudget, childL
}

// NodeState is the per-switch protocol engine behind the message-passing
// deployment of SOAR (paper Sec. 4.2; internal/cluster runs it over TCP). A
// switch constructs its state from the X tables its children sent, ships
// XTable() to its parent, and later answers the parent's (budget, ℓ)
// assignment with Decide.
type NodeState struct {
	t  *topology.Tree
	v  int
	k  int
	nt nodeTables
}

// NewNodeStateCaps runs the SOAR-Gather step of switch v: a blue at v
// consumes capw budget units (0 means v may not be blue, 1 is the
// uniform model's v ∈ Λ). childX must hold one flattened X table per
// child, in child order, each of length (Depth(child)+1)·(cap(child)+1)
// as produced by XTable on the child — the child's effective cap is
// recovered from the table length. The switch's own cap is then
// min(k, capw + Σ child caps), exactly EffectiveCapsVec applied one
// level up.
func NewNodeStateCaps(t *topology.Tree, v int, loadV int, hasLoad bool, capw, k int, childX [][]float64) (*NodeState, error) {
	if k < 0 {
		k = 0
	}
	if capw < 0 || capw > MaxCapacity {
		return nil, fmt.Errorf("core: switch %d has capacity %d outside [0, %d]", v, capw, MaxCapacity)
	}
	children := t.Children(v)
	if len(childX) != len(children) {
		return nil, fmt.Errorf("core: switch %d has %d children but got %d tables", v, len(children), len(childX))
	}
	capv := int64(capw) // int64: exact even near MaxInt budgets on 32-bit
	tables := make([]*nodeTables, len(children))
	for i, c := range children {
		rows := t.Depth(c) + 1
		if len(childX[i]) == 0 || len(childX[i])%rows != 0 {
			return nil, fmt.Errorf("core: child %d table has %d entries, want a positive multiple of %d rows", c, len(childX[i]), rows)
		}
		ccap := len(childX[i])/rows - 1
		if ccap > k {
			return nil, fmt.Errorf("core: child %d table has %d budget columns, want at most k+1 = %d", c, ccap+1, k+1)
		}
		tables[i] = &nodeTables{cap: ccap, x: childX[i]}
		capv += int64(ccap)
	}
	if capv > int64(k) {
		capv = int64(k)
	}
	ns := &NodeState{
		t:  t,
		v:  v,
		k:  k,
		nt: newNodeStorage(t.Depth(v), int(capv), len(children)),
	}
	computeNode(t, v, loadV, hasLoad, capw, &ns.nt, tables, newScratch(int(capv)))
	return ns, nil
}

// Cap returns the switch's effective budget min(k, Σ_{u ∈ T_v} c(u))
// (min(k, |T_v ∩ Λ|) in the uniform model), the number of budget columns
// (minus one) in XTable.
func (ns *NodeState) Cap() int { return ns.nt.cap }

// XTable returns the flattened X table to send to the parent, of length
// (Depth(v)+1)·(Cap()+1), row-major in ℓ.
func (ns *NodeState) XTable() []float64 {
	out := make([]float64, len(ns.nt.x))
	copy(out, ns.nt.x)
	return out
}

// Optimum returns X_v(1, k); meaningful at the root, where it is the
// optimal φ the destination reads off (paper Eq. 6).
func (ns *NodeState) Optimum() float64 {
	return ns.nt.at(1, ns.k)
}

// Decide answers the parent's SOAR-Color assignment: it returns whether v
// is blue and the (budget, ℓ) to forward to each child in child order.
func (ns *NodeState) Decide(budget, l int) (isBlue bool, childBudget []int, childL int, err error) {
	if budget < 0 || budget > ns.k {
		return false, nil, 0, fmt.Errorf("core: switch %d got budget %d outside [0,%d]", ns.v, budget, ns.k)
	}
	if l < 0 || l > ns.t.Depth(ns.v) {
		return false, nil, 0, fmt.Errorf("core: switch %d got ℓ=%d outside [0,%d]", ns.v, l, ns.t.Depth(ns.v))
	}
	isBlue, childBudget, childL = decide(ns.t, &ns.nt, ns.v, budget, l, nil)
	return isBlue, childBudget, childL, nil
}
