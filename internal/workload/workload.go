// Package workload implements the online multiple-workload setting of the
// SOAR paper's Sec. 5.2.
//
// Workloads L_0, L_1, ... arrive one at a time; the aggregation switches
// for workload L_t must be fixed before L_{t+1} is seen. Every switch s
// has an aggregation capacity a(s) bounding the number of workloads it
// can aggregate for; a_t(s) is the residual capacity before workload t,
// and the availability set for workload t is Λ_t = {s : a_t(s) > 0}.
// Whichever strategy is used picks at most k switches from Λ_t, and the
// chosen switches have their residual capacity decremented.
//
// Capacity bookkeeping is shared with the serving layer: an Allocator
// embeds a sched.Ledger, the same type the concurrent scheduler charges
// leases against.
package workload

import (
	"fmt"
	"math/rand"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/placement"
	"soar/internal/reduce"
	"soar/internal/sched"
	"soar/internal/topology"
)

// Allocator tracks residual aggregation capacities across an online
// sequence of workloads for one strategy.
type Allocator struct {
	t        *topology.Tree
	strategy placement.Strategy
	k        int
	ledger   *sched.Ledger
	// inc serves a core.Strategy allocator: a stateful engine, built on
	// first use, that Handle patches with each workload's load deltas
	// and availability changes instead of re-running Gather from scratch
	// through Place.
	inc *core.Incremental
}

// NewAllocator creates an online allocator with uniform per-switch
// capacity. capacity ≤ 0 means unlimited. When s is core.Strategy the
// allocator solves on a stateful core.Incremental engine: placements
// and φ values are exactly those of calling s.Place per workload (the
// engine's tables are bitwise identical to a from-scratch Gather), but
// between workloads only the switches whose load changed (or whose
// capacity ran out) have their v→root table paths recomputed.
func NewAllocator(t *topology.Tree, s placement.Strategy, k, capacity int) *Allocator {
	return &Allocator{t: t, strategy: s, k: k, ledger: sched.NewLedger(t.N(), capacity)}
}

// SetCapacity overrides the residual capacity of one switch (0 makes it
// permanently unavailable); useful for heterogeneous deployments.
func (a *Allocator) SetCapacity(v, c int) {
	a.ledger.SetCapacity(v, c)
}

// Residual returns the residual capacity of switch v.
func (a *Allocator) Residual(v int) int {
	return a.ledger.Residual(v)
}

// Available returns Λ_t as a boolean vector (a defensive copy).
func (a *Allocator) Available() []bool {
	return a.ledger.AvailCopy()
}

// Handle places aggregation switches for one arriving workload, charges
// their capacity, and returns the chosen blue set together with the
// workload's utilization φ.
func (a *Allocator) Handle(loads []int) (blue []bool, phi float64) {
	if len(loads) != a.t.N() {
		panic(fmt.Sprintf("workload: load has %d entries for %d switches", len(loads), a.t.N()))
	}
	if _, soar := a.strategy.(core.Strategy); soar {
		blue = a.placeIncremental(loads)
	} else {
		blue = a.strategy.Place(a.t, loads, a.ledger.AvailCopy(), a.k)
	}
	for v, b := range blue {
		if b {
			if a.ledger.Residual(v) <= 0 {
				panic(fmt.Sprintf("workload: strategy %q picked exhausted switch %d", a.strategy.Name(), v))
			}
			a.ledger.Charge(v)
		}
	}
	return blue, reduce.Utilization(a.t, loads, blue)
}

// placeIncremental is the incremental fast path: per-workload load
// deltas become a batched SetLoads sweep and capacity exhaustions
// become SetAvails updates, each dirtying only the changed switches'
// root paths before one coalesced re-sweep inside Solve. The first
// workload and every budget change (HandleWithBudget / RunPolicy) build
// the engine, since the DP tables are sized by k.
func (a *Allocator) placeIncremental(loads []int) []bool {
	if a.inc == nil || a.inc.K() != a.k {
		a.inc = core.NewIncremental(a.t, loads, a.ledger.Avail(), a.k)
	} else {
		a.inc.SetLoads(loads)
		a.inc.SetAvails(a.ledger.Avail())
	}
	return a.inc.Solve().Blue
}

// Sequence generates the paper's online workload arrival process: each
// workload is drawn from the uniform distribution or the power-law
// distribution with probability 1/2 each, loads on leaves only.
type Sequence struct {
	t       *topology.Tree
	uniform load.Distribution
	power   load.Distribution
	rng     *rand.Rand
}

// NewSequence builds the paper's 50/50 uniform/power-law arrival process.
func NewSequence(t *topology.Tree, rng *rand.Rand) *Sequence {
	return &Sequence{t: t, uniform: load.PaperUniform(), power: load.PaperPowerLaw(), rng: rng}
}

// Next draws the next workload's load vector.
func (s *Sequence) Next() []int {
	d := s.uniform
	if s.rng.Intn(2) == 1 {
		d = s.power
	}
	return load.Generate(s.t, d, load.LeavesOnly, s.rng)
}

// RunResult summarizes an online run.
type RunResult struct {
	// PerWorkload[t] is φ of workload t under the strategy's placements.
	PerWorkload []float64
	// AllRed[t] is φ of workload t with no aggregation, the normalizer.
	AllRed []float64
	// CumulativeRatio[t] = Σ_{i≤t} PerWorkload / Σ_{i≤t} AllRed, the
	// quantity the paper's Fig. 7 plots as "network utilization".
	CumulativeRatio []float64
}

// Run drives an allocator over a fixed sequence of workloads.
func Run(a *Allocator, workloads [][]int) RunResult {
	res := RunResult{
		PerWorkload:     make([]float64, len(workloads)),
		AllRed:          make([]float64, len(workloads)),
		CumulativeRatio: make([]float64, len(workloads)),
	}
	allRed := make([]bool, a.t.N())
	var sumPhi, sumRed float64
	for i, l := range workloads {
		_, phi := a.Handle(l)
		res.PerWorkload[i] = phi
		res.AllRed[i] = phiAllRed(a, l, allRed)
		sumPhi += phi
		sumRed += res.AllRed[i]
		res.CumulativeRatio[i] = sumPhi / sumRed
	}
	return res
}

func phiAllRed(a *Allocator, l []int, allRed []bool) float64 {
	return reduce.Utilization(a.t, l, allRed)
}
