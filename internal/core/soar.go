// Package core implements SOAR, the optimal dynamic-programming algorithm
// for the Bounded In-network Computing problem (φ-BIC) of
//
//	Segal, Avin, Scalosub: "SOAR: Minimizing Network Utilization with
//	Bounded In-network Computing", CoNEXT 2021.
//
// Given a weighted tree network T, a load vector L, an availability set
// Λ and a budget k, SOAR finds a set U ⊆ Λ of at most k aggregating
// ("blue") switches minimizing the network utilization cost
// φ(T, L, U) = Σ_e msg_e·ρ(e). The paper costs the sweep at O(n·h(T)·k²)
// (Thm. 4.1); this implementation clamps every subtree to its effective
// budget cap[v] = min(k, |T_v ∩ Λ|) (see EffectiveCaps and DESIGN.md),
// which brings the practical cost down to ~O(n·h(T)·k) with bitwise
// identical results.
//
// The implementation follows the paper's two phases:
//
//   - SOAR-Gather (paper Alg. 3) sweeps the tree bottom-up and fills, for
//     every switch v, a table X_v(ℓ, i): the minimal potential π of the
//     subtree T_v when i blue switches are placed inside it and the
//     nearest blue ancestor (or the destination d) is ℓ hops above v. The
//     potential (paper Eq. 4) charges T_v's internal edges plus the cost
//     its outgoing message(s) will incur on the ℓ links above. Alg. 3
//     folds v's children once for a red v and once for a blue v; this
//     implementation folds the red track only, because a blue v's
//     children see ℓ = 1 — what a red v's children see at ℓ = 0 — so the
//     blue track is red row 0 shifted by c(v) plus ρ(v, Aℓ)·min(1, L(T_v))
//     (see computeNode; exact for dyadic ρ, within an ulp otherwise).
//   - SOAR-Color (paper Alg. 4) walks top-down along the recorded argmin
//     "breadcrumbs" and assigns the colors.
//
// The serial engine lives in this file, gather.go and color.go; memo.go,
// incremental.go and batch.go are its caching, stateful and fused-batch
// forms, and protocol.go is the per-switch step of the paper's
// distributed protocol (Sec. 4.2), which internal/cluster runs over TCP.
// All of them share computeNode and produce identical placements.
package core

import (
	"fmt"

	"soar/internal/reduce"
	"soar/internal/topology"
)

// Result is an optimal φ-BIC solution.
type Result struct {
	// Blue[v] reports whether switch v aggregates.
	Blue []bool
	// Cost is φ(T, L, Blue), as computed by the DP. It always equals
	// reduce.Utilization(t, load, Blue).
	Cost float64
}

// Solve runs both SOAR phases and returns an optimal placement of at most
// k blue switches chosen from avail (nil means all switches available).
func Solve(t *topology.Tree, load []int, avail []bool, k int) Result {
	tb := Gather(t, load, avail, k)
	blue, cost := ColorPhase(tb)
	return Result{Blue: blue, Cost: cost}
}

// SolveCaps solves the heterogeneous-capacity generalization of φ-BIC:
// every switch v has a capacity weight caps[v] ≥ 0 and a blue at v
// consumes caps[v] units of the budget k, so the placement U minimizes
// φ(T, L, U) subject to Σ_{v ∈ U} caps[v] ≤ k over U ⊆ {v : caps[v] ≥ 1}.
// caps[v] = 0 is exactly v ∉ Λ, and a 0/1 capacity vector reproduces
// Solve's uniform model bitwise (tables, breadcrumbs and placement);
// caps == nil means every switch has capacity 1. The generalized sweep
// keeps the clamped engines' ~O(n·h(T)·k) cost: only the effective
// budgets cap[v] = min(k, Σ subtree caps) change.
func SolveCaps(t *topology.Tree, load []int, caps []int, k int) Result {
	tb := GatherCaps(t, load, caps, k)
	blue, cost := ColorPhase(tb)
	return Result{Blue: blue, Cost: cost}
}

// Strategy adapts SOAR to the placement.Strategy interface so that
// experiments can treat it uniformly with the baselines.
type Strategy struct{}

// Name implements placement.Strategy.
func (Strategy) Name() string { return "soar" }

// Place implements placement.Strategy.
func (Strategy) Place(t *topology.Tree, load []int, avail []bool, k int) []bool {
	return Solve(t, load, avail, k).Blue
}

// Tables is the dynamic-programming state produced by Gather and
// consumed by ColorPhase. It retains, per switch, the X table, the
// color choice at each (ℓ, i), and the budget-split breadcrumbs used by
// the traceback.
type Tables struct {
	t     *topology.Tree
	load  []int
	k     int
	nodes []nodeTables
}

// K returns the budget the tables were computed for.
func (tb *Tables) K() int { return tb.k } //soar:hotpath

// Tree returns the tree the tables were computed on.
func (tb *Tables) Tree() *topology.Tree { return tb.t }

// X returns X_v(ℓ, i): the minimal subtree potential for switch v with i
// blue switches in T_v and the nearest blue ancestor (or d) ℓ hops up.
// ℓ must be in [0, Depth(v)] and i in [0, k]. Storage is clamped to the
// effective budget (see EffectiveCaps): columns beyond Cap(v) read the
// cap column, which the unbounded DP proves equal.
//
//soar:hotpath
func (tb *Tables) X(v, l, i int) float64 {
	return tb.nodes[v].at(l, i)
}

// Blue reports whether the optimum at X_v(ℓ, i) colors v blue.
//
//soar:hotpath
func (tb *Tables) Blue(v, l, i int) bool {
	return tb.nodes[v].blueAt(l, i)
}

// Cap returns the effective budget cap[v] = min(k, Σ_{u ∈ T_v} c(u)) the
// tables of switch v were clamped to (min(k, |T_v ∩ Λ|) in the uniform
// model).
func (tb *Tables) Cap(v int) int { return tb.nodes[v].cap } //soar:hotpath

// Capacity returns the capacity weight c(v) the tables were computed
// with: the budget a blue at v consumes. It is 1 for available switches
// and 0 for unavailable ones in the uniform model.
func (tb *Tables) Capacity(v int) int { return tb.nodes[v].capw } //soar:hotpath

// Optimum returns the optimal utilization cost φ-BIC(T, L, Λ, k), which
// is X_r(1, k) for the root r (paper Eq. 6).
//
//soar:hotpath
func (tb *Tables) Optimum() float64 {
	return tb.X(tb.t.Root(), 1, tb.k)
}

//soar:hotpath
func validate(t *topology.Tree, load []int, avail []bool) {
	if len(load) != t.N() {
		panic(fmt.Sprintf("core: tree has %d switches but load has %d entries", t.N(), len(load)))
	}
	if avail != nil && len(avail) != t.N() {
		panic(fmt.Sprintf("core: tree has %d switches but avail has %d entries", t.N(), len(avail)))
	}
	for v, l := range load {
		if l < 0 {
			panic(fmt.Sprintf("core: switch %d has negative load %d", v, l))
		}
	}
}

// MaxCapacity bounds a single switch's capacity weight; it keeps the
// effective-budget prefix sums far from integer overflow on every
// platform while allowing any realistic heterogeneity.
const MaxCapacity = 1 << 30

func validateCaps(t *topology.Tree, load []int, caps []int) {
	validate(t, load, nil)
	if caps == nil {
		return
	}
	if len(caps) != t.N() {
		panic(fmt.Sprintf("core: tree has %d switches but caps has %d entries", t.N(), len(caps)))
	}
	for v, c := range caps {
		if c < 0 || c > MaxCapacity {
			panic(fmt.Sprintf("core: switch %d has capacity %d outside [0, %d]", v, c, MaxCapacity))
		}
	}
}

// sanity check that the DP cost of a placement matches the simulator;
// used by tests via ColorPhase's return contract.
var _ = reduce.Utilization
