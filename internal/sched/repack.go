package sched

import (
	"sort"
	"time"

	"soar/internal/wire"
)

// The background re-packer. The online model is arrival-only in the
// paper; once departures exist (Release), early tenants keep the
// placements they were given under *old* contention, and the capacity
// departures free is only picked up by new arrivals. A fragmented
// steady state follows: the availability set is rich again, but
// standing tenants still pay the φ of the congested past.
//
// A re-packing round undoes a bounded amount of that: it considers
// tenants in decreasing order of their current normalized utilization
// (worst value delivered first), re-solves each against today's
// residual capacity with the tenant's own switches temporarily freed,
// and migrates the tenant only if the fresh placement improves its φ by
// the configured margin. At most MaxMoves tenants migrate per round —
// the migration budget m — because each move is data-plane churn
// (aggregation state moves between switches); the loop also yields as
// soon as foreground requests queue up, keeping re-packing strictly
// low-priority.

// repackTicker drives periodic rounds through the request queue so that
// all ledger mutation stays on the dispatcher goroutine.
func (s *Scheduler) repackTicker() {
	defer s.bg.Done()
	ticker := time.NewTicker(s.cfg.Repack.Every)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			// Synchronous: a slow round naturally back-pressures the
			// ticker instead of piling up repack requests.
			s.RepackNow(0)
		}
	}
}

// repack runs one re-packing round on the dispatcher goroutine. The
// solve of each candidate runs outside s.mu — soarlint's lockdiscipline
// analyzer proves no Solve* call ever happens under it — so the lock is
// cycled per candidate: credit the tenant's slots under mu, solve
// unlocked (the dispatcher is the ledger's only writer, so its own
// unlocked availability reads cannot race), then re-take mu to either
// commit the migration or restore the slots. A concurrent Residual or
// Snapshot may therefore observe the candidate's slots transiently
// free mid-migration; Lookup still sees each lease atomically old or
// new. Returns the number of tenants migrated and the aggregate Φ
// recovered.
func (s *Scheduler) repack(maxMoves int) (moved int, recovered float64) {
	if maxMoves <= 0 {
		maxMoves = s.cfg.Repack.MaxMoves
	}
	// Worst value delivered first; ids break ties so rounds are
	// deterministic for a given lease set.
	type cand struct {
		id    int64
		ratio float64
	}
	s.mu.Lock()
	if len(s.tab.leases) == 0 {
		s.met.noteRepack(0, 0)
		s.mu.Unlock()
		return 0, 0
	}
	cands := make([]cand, 0, len(s.tab.leases))
	for id, ten := range s.tab.leases {
		cands = append(cands, cand{id, ten.ratio()})
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ratio != cands[j].ratio {
			return cands[i].ratio > cands[j].ratio
		}
		return cands[i].id < cands[j].id
	})

	// A round inspects at most scanBudget candidates: solving is the
	// expensive part, and a round that cannot find improvements among
	// the worst-off tenants should end, not scan the whole tenant set.
	scanBudget := 4 * maxMoves
	for _, c := range cands {
		if moved >= maxMoves || scanBudget == 0 {
			break
		}
		if len(s.reqs) > 0 {
			break // foreground traffic waiting: yield
		}
		scanBudget--
		// Free the tenant's own slots so the solver may keep any of them.
		// Only the dispatcher mutates leases, so ten cannot be released
		// between the unlock and the commit below.
		s.mu.Lock()
		ten := s.tab.leases[c.id]
		for _, v := range ten.blue {
			s.tab.ledger.Credit(v)
		}
		oldPhi := ten.phi
		s.mu.Unlock()

		// The solver reads a dense vector: scatter the candidate's pairs
		// into the scratch, let the engine copy them, and zero exactly
		// those entries again — on every path, so the next candidate (and
		// the next round) starts from an all-zero vector.
		ten.load.scatter(s.bgLoad)
		eng := s.bgSol.ensure(s.t, s.bgLoad, s.tab.ledger.Avail(), ten.k)
		ten.load.clear(s.bgLoad)
		s.spread(eng)
		newPhi := eng.SolveInto(s.bgBlue)

		s.mu.Lock()
		fenced := false
		if s.cfg.Fence != nil && s.cfg.Fence() != nil {
			// A superseded primary must not migrate: restore the slots and
			// end the round (every further candidate would fence too).
			fenced = true
		}
		if !fenced && newPhi < oldPhi {
			moved++
			recovered += oldPhi - newPhi
			ten.phi = newPhi
			ten.blue = ten.blue[:0]
			for v, b := range s.bgBlue {
				if b {
					s.tab.ledger.Charge(v)
					ten.blue = append(ten.blue, v)
				}
			}
			s.journalAppend(wire.DeltaMigrate, ten)
		} else {
			// Not worth the churn: restore the tenant's slots untouched.
			for _, v := range ten.blue {
				s.tab.ledger.Charge(v)
			}
		}
		s.mu.Unlock()
		if fenced {
			break
		}
	}
	s.mu.Lock()
	s.met.noteRepack(moved, recovered)
	s.mu.Unlock()
	return moved, recovered
}
