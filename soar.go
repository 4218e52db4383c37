// Package soar is a from-scratch Go reproduction of
//
//	Segal, Avin, Scalosub: "SOAR: Minimizing Network Utilization with
//	Bounded In-network Computing", CoNEXT 2021 (arXiv:2110.14224).
//
// Given a tree network of switches with heterogeneous link rates, a
// per-switch server load, and a budget of k in-network aggregation
// ("blue") switches, SOAR computes a placement of the k switches that
// provably minimizes the network utilization cost of a Reduce operation
// (the φ-BIC problem), in O(n·h·k²) time.
//
// This root package is a thin facade over the implementation packages:
//
//   - internal/topology: weighted tree networks and builders
//   - internal/load: the paper's load distributions
//   - internal/reduce: the Reduce simulator (message and byte complexity)
//   - internal/placement: baseline strategies and a brute-force oracle
//   - internal/core: the SOAR dynamic program
//   - internal/workload: the online multiple-workload setting
//   - internal/sched: the concurrent multi-tenant placement scheduler
//   - internal/wordcount, internal/paramserver: the two use-case models
//   - internal/wire, internal/cluster: SOAR over loopback TCP
//   - internal/experiments: regeneration of every evaluation figure
//
// Quickstart:
//
//	t := soar.CompleteBinaryTree(3)               // 7 switches
//	loads := []int{0, 0, 0, 2, 6, 5, 4}           // racks at the leaves
//	res := soar.Solve(t, loads, 2)                // place 2 aggregators
//	fmt.Println(res.Cost)                         // 20, the paper's Fig. 2d
//	fmt.Println(soar.Utilization(t, loads, res.Blue))
package soar

import (
	"math/rand"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/placement"
	"soar/internal/reduce"
	"soar/internal/sched"
	"soar/internal/topology"
)

// Tree is a weighted tree network of switches rooted next to the
// destination server d. See internal/topology for full documentation.
type Tree = topology.Tree

// Result is an optimal φ-BIC solution: the blue set and its utilization.
type Result = core.Result

// Strategy is a blue-switch placement policy (SOAR or a baseline).
type Strategy = placement.Strategy

// NoParent marks the root in a parent vector passed to NewTree.
const NoParent = topology.NoParent

// NewTree builds a tree from a parent vector (NoParent marks the root)
// and per-edge rates ω; the root's rate is that of the (r, d) edge.
func NewTree(parent []int, omega []float64) (*Tree, error) {
	return topology.New(parent, omega)
}

// CompleteBinaryTree returns a complete binary tree network with the
// given number of levels and unit link rates.
func CompleteBinaryTree(levels int) *Tree { return topology.CompleteBinary(levels) }

// BT returns the paper's BT(n) topology (n counts the destination; the
// switch network has n−1 switches). n must be a power of two.
func BT(n int) (*Tree, error) { return topology.BT(n) }

// ScaleFreeTree returns a random preferential-attachment tree with n
// switches, the paper's SF(n) topology.
func ScaleFreeTree(n int, seed int64) *Tree {
	return topology.ScaleFree(n, rand.New(rand.NewSource(seed)))
}

// Solve places at most k aggregation switches optimally (every switch
// available).
func Solve(t *Tree, loads []int, k int) Result {
	return core.Solve(t, loads, nil, k)
}

// SolveRestricted places at most k aggregation switches optimally among
// the available set Λ.
func SolveRestricted(t *Tree, loads []int, avail []bool, k int) Result {
	return core.Solve(t, loads, avail, k)
}

// SolveCaps solves the heterogeneous-capacity generalization: switch v
// consumes caps[v] units of the budget k when selected (caps[v] = 0
// marks a plain forwarder that may never aggregate). A 0/1 vector is
// exactly SolveRestricted; caps == nil is exactly Solve. The
// capacity-profile builders (CapsUniform, CapsTiered, CapsTorOnly,
// CapsPowerLaw) generate deployment mixes; see internal/core.SolveCaps
// for the model.
func SolveCaps(t *Tree, loads []int, caps []int, k int) Result {
	return core.SolveCaps(t, loads, caps, k)
}

// Memo is a reusable solve cache for one tree: switches with provably
// identical DP inputs (isomorphic subtrees, equal loads, capacities and
// ρ-up profiles) are grouped into hash-consed equivalence classes, the
// DP runs once per class, and warm tables persist across solves. See
// internal/core for the full model and ownership rules.
type Memo = core.Memo

// NewMemo returns an empty solve cache for t. Pass it to SolveMemo
// or SolveMemoCaps; reuse it across solves to keep the class tables
// warm. A Memo is not safe for concurrent use.
func NewMemo(t *Tree) *Memo { return core.NewMemo(t) }

// SolveMemo is Solve through the solve cache: on symmetric topologies
// (the paper's BT family) the Gather phase collapses from O(n) to
// O(distinct classes) node computations, and repeated solves hit warm
// tables. The placement is bitwise identical to Solve.
func SolveMemo(m *Memo, loads []int, k int) Result {
	return core.SolveMemo(m, loads, nil, k)
}

// SolveMemoCaps is SolveCaps through the solve cache; one Memo serves
// uniform and capacity-vector solves interchangeably.
func SolveMemoCaps(m *Memo, loads []int, caps []int, k int) Result {
	return core.SolveMemoCaps(m, loads, caps, k)
}

// Incremental is a stateful SOAR engine for online settings: it keeps
// the Gather tables alive across point updates to the loads and the
// availability set, recomputing only the dirtied root paths. See
// internal/core for full documentation.
type Incremental = core.Incremental

// NewIncremental runs one full SOAR-Gather and returns a stateful
// engine supporting UpdateLoad / SetAvail point updates and repeated
// Solve calls at O(h²k²) per flushed update instead of a full O(n·h·k²)
// re-solve. avail == nil means every switch may be blue.
func NewIncremental(t *Tree, loads []int, avail []bool, k int) *Incremental {
	return core.NewIncremental(t, loads, avail, k)
}

// NewIncrementalCaps is NewIncremental under the heterogeneous capacity
// model: a blue at v consumes caps[v] budget units, and SetCap point
// updates re-tier switches online.
func NewIncrementalCaps(t *Tree, loads []int, caps []int, k int) *Incremental {
	return core.NewIncrementalCaps(t, loads, caps, k)
}

// Scheduler is the concurrent multi-tenant placement service: batched
// admissions solved on a pool of incremental engines against per-switch
// lease capacities, with background re-packing. See internal/sched for
// full documentation.
type Scheduler = sched.Scheduler

// SchedulerConfig tunes a Scheduler (capacity, workers, re-packing); the
// zero value is usable.
type SchedulerConfig = sched.Config

// Lease describes one tenant's allocation from a Scheduler.
type Lease = sched.Lease

// NewScheduler starts a placement scheduler over tree t. Callers must
// Close it.
func NewScheduler(t *Tree, cfg SchedulerConfig) *Scheduler {
	return sched.New(t, cfg)
}

// CapsUniform returns the uniform capacity profile caps[v] = c.
func CapsUniform(t *Tree, c int) []int { return topology.CapsUniform(t, c) }

// CapsTiered assigns capacities by tree level (root level first, the
// last entry extends downward) — the tiered fat-tree profile.
func CapsTiered(t *Tree, byLevel ...int) []int { return topology.CapsTiered(t, byLevel...) }

// CapsTorOnly makes only leaf (ToR) switches available: each leaf gets
// capacity c with probability p, everything else is a plain forwarder.
func CapsTorOnly(t *Tree, c int, p float64, seed int64) []int {
	return topology.CapsTorOnly(t, c, p, rand.New(rand.NewSource(seed)))
}

// CapsPowerLaw draws capacities from a bounded power law over
// {1, …, max}: many cheap switches, a heavy tail of expensive ones.
func CapsPowerLaw(t *Tree, max int, alpha float64, seed int64) []int {
	return topology.CapsPowerLaw(t, max, alpha, rand.New(rand.NewSource(seed)))
}

// Utilization returns φ(T, L, U), the paper's network utilization cost of
// a Reduce with blue set U (Eq. 1).
func Utilization(t *Tree, loads []int, blue []bool) float64 {
	return reduce.Utilization(t, loads, blue)
}

// MessageCounts returns the number of messages crossing the edge above
// each switch during the Reduce.
func MessageCounts(t *Tree, loads []int, blue []bool) []int64 {
	return reduce.MessageCounts(t, loads, blue)
}

// SOAR returns the optimal strategy as a placement.Strategy, for use
// alongside Baselines.
func SOAR() Strategy { return core.Strategy{} }

// Baselines returns the paper's contending strategies: Top, Max, Level.
func Baselines() []Strategy {
	return []Strategy{placement.Top{}, placement.Max{}, placement.Level{}}
}

// UniformLoads draws the paper's uniform leaf loads (u.a.r. on {4,5,6}).
func UniformLoads(t *Tree, seed int64) []int {
	return load.Generate(t, load.PaperUniform(), load.LeavesOnly, rand.New(rand.NewSource(seed)))
}

// PowerLawLoads draws the paper's power-law leaf loads (mean 5, support
// [1, 63]).
func PowerLawLoads(t *Tree, seed int64) []int {
	return load.Generate(t, load.PaperPowerLaw(), load.LeavesOnly, rand.New(rand.NewSource(seed)))
}
