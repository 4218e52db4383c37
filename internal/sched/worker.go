package sched

import (
	"soar/internal/core"
	"soar/internal/topology"
)

// solver is one reusable solving slot: an incremental engine. Each pool
// worker (and the dispatcher's background slot) owns exactly one, so
// solving needs no locking.
type solver struct {
	eng *core.Incremental
}

// ensure points the solver's engine at (load, avail, k) — rebuilding it
// only when the budget changed, otherwise patching loads and
// availability in place — and returns it.
//
//soar:hotpath
func (sol *solver) ensure(t *topology.Tree, load []int, avail []bool, k int) *core.Incremental {
	if sol.eng == nil || sol.eng.K() != k {
		sol.eng = core.NewIncremental(t, load, avail, k) //soar:coldpath budget changed: rebuild
	} else {
		sol.eng.SetLoads(load)
		sol.eng.SetAvails(avail)
	}
	return sol.eng
}

// worker is one slot of the engine pool: a goroutine owning one
// reusable solver. Workers steal placements from the current batch via
// the scheduler's atomic cursor, so a skewed batch (one huge tenant,
// many small ones) still balances. Woken while the dispatcher spreads a
// dense flush of its own engine (Scheduler.spread), a worker takes that
// flush's lanes from the same cursor instead.
//
// Engine reuse is the point: a warm engine is patched to the next
// tenant's load vector and the batch's availability snapshot with
// SetLoads/SetAvails, which recompute only the DP tables on the changed
// switches' root paths. For the sparse tenants a shared tree actually
// sees (a few racks each), that is an order of magnitude less work than
// the from-scratch solve the pre-scheduler serving path ran per
// admission — and it allocates nothing.
type worker struct {
	s    *Scheduler
	sol  solver
	wake chan struct{}
}

//soar:hotpath
func (w *worker) loop() {
	defer w.s.bg.Done() //soar:coldpath runs once, at shutdown
	for range w.wake {
		if w.s.split != nil {
			w.s.flushLanes()
			w.s.batchWG.Done()
			continue
		}
		for {
			i := int(w.s.batchNext.Add(1)) - 1
			if i >= len(w.s.places) {
				break
			}
			w.s.solveOn(&w.sol, w.s.places[i])
		}
		w.s.batchWG.Done()
	}
}
