package sched

import "fmt"

// The commit journal: the replication feed of internal/ha. When
// Config.Journal is set, the dispatcher emits one JournalEvent per
// committed control-plane mutation — admission, release, re-packer
// migration — in commit order, each carrying a sequence number assigned
// under the commit lock. A standby that folds the events of a
// checkpoint's sequence interval on top of that checkpoint (ApplyEvent)
// reconstructs the primary's lease table and ledger exactly; Audit then
// proves conservation from first principles before the replica serves.
//
// Events are buffered on the dispatcher and flushed to the hook outside
// the lock, so a slow subscriber delays the dispatcher but never blocks
// concurrent Lookup/Residual readers. The hook runs on the dispatcher
// goroutine: it must hand off quickly (internal/ha fans out to buffered
// per-standby channels and drops laggards rather than stall admission).

// JournalOp is the kind of one committed mutation.
type JournalOp uint8

const (
	// JournalPlace admits a tenant: the event carries the full lease.
	JournalPlace JournalOp = 1 + iota
	// JournalRelease frees a lease; only ID is meaningful.
	JournalRelease
	// JournalMigrate re-places a live lease (the re-packer moved it):
	// ID, Phi and Blue are meaningful, the load does not change.
	JournalMigrate
)

// JournalEvent is one committed control-plane mutation. Slices are
// copies owned by the receiver.
type JournalEvent struct {
	// Seq numbers events densely in commit order, starting one past the
	// scheduler's seed (zero on a fresh scheduler): a receiver observing
	// a gap has lost events and must resynchronize from a checkpoint.
	Seq uint64
	Op  JournalOp
	ID  int64
	K   int
	Phi float64
	// AllRed is carried on place events only.
	AllRed float64
	// Blue lists the leased switches (place and migrate).
	Blue []int
	// Load is the tenant's load as canonical pairs (place only).
	Load SparseLoad
}

// journalAppend records one committed mutation. Callers hold mu (the
// dispatcher is the only caller, so jbuf needs no lock of its own); the
// copies make the event self-contained once the tenant record is pooled
// or migrated again. Journaling costs allocations by design (the waived
// statements below); schedulers without a Journal hook stay on the
// 0 allocs/op admission contract.
//
//soar:hotpath
func (s *Scheduler) journalAppend(op JournalOp, id int64, ten *tenant) {
	if s.cfg.Journal == nil {
		return
	}
	s.journalSeq++
	ev := JournalEvent{Seq: s.journalSeq, Op: op, ID: id}
	if ten != nil {
		ev.K = ten.k
		ev.Phi = ten.phi
		ev.AllRed = ten.allRed
		ev.Blue = append([]int(nil), ten.blue...) //soar:coldpath replication journal enabled
		if op == JournalPlace {
			ev.Load = ten.load.clone() //soar:coldpath replication journal enabled
		}
	}
	s.jbuf = append(s.jbuf, ev) //soar:coldpath replication journal enabled
}

// flushJournal hands buffered events to the hook, outside mu and in
// commit order. Dispatcher-only, like the buffer itself.
//
//soar:hotpath
func (s *Scheduler) flushJournal() {
	if s.cfg.Journal == nil || len(s.jbuf) == 0 {
		return
	}
	for i := range s.jbuf {
		s.cfg.Journal(s.jbuf[i]) //soar:coldpath replication journal enabled
		s.jbuf[i] = JournalEvent{}
	}
	s.jbuf = s.jbuf[:0]
}

// JournalSeq returns the sequence number of the last journaled (or
// applied) mutation.
func (s *Scheduler) JournalSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalSeq
}

// SeedJournal sets the journal sequence a replica continues from: call
// it after Restore with the sequence the checkpoint was offered at,
// then ApplyEvent the journal suffix. Must happen before traffic.
func (s *Scheduler) SeedJournal(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journalSeq = seq
}

// SeedNextID raises the id the next admission receives to at least
// floor (it never lowers it). A replica promoted from a checkpoint and
// a journal suffix calls it after the replay: the old primary
// acknowledges a commit before its standbys hold the delta, so the
// replayed high-water mark can be behind an id a client already holds.
// Must happen before traffic.
func (s *Scheduler) SeedNextID(floor int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID = max(s.nextID, floor)
}

// ApplyEvent replays one journal event into the scheduler, validating
// it the way Restore validates a checkpoint: sequence-dense, ids fresh
// (or live, for release/migrate), switches in range with residual
// capacity, load pairs canonical (SparseLoad.Check). Like Restore it
// must run before the scheduler serves traffic — it is the standby
// promotion path, not a serving-time API. A rejected event leaves the
// scheduler unchanged.
func (s *Scheduler) ApplyEvent(ev JournalEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Seq != s.journalSeq+1 {
		return fmt.Errorf("sched: apply: event seq %d after %d (journal gap)", ev.Seq, s.journalSeq)
	}
	switch ev.Op {
	case JournalPlace:
		if _, ok := s.leases[ev.ID]; ok {
			return fmt.Errorf("sched: apply: place of live tenant %d", ev.ID)
		}
		if ev.ID < 0 || ev.K < 0 {
			return fmt.Errorf("sched: apply: tenant %d has budget %d", ev.ID, ev.K)
		}
		if err := ev.Load.Check(s.t.N()); err != nil {
			return fmt.Errorf("sched: apply: tenant %d: %w", ev.ID, err)
		}
		if err := s.checkBlues(ev.ID, ev.Blue); err != nil {
			return err
		}
		ten := &tenant{
			id:     ev.ID,
			k:      ev.K,
			phi:    ev.Phi,
			allRed: ev.AllRed,
			blue:   append([]int(nil), ev.Blue...),
			load:   ev.Load.clone(),
		}
		for _, v := range ten.blue {
			s.ledger.Charge(v)
		}
		s.leases[ev.ID] = ten
		if ev.ID >= s.nextID {
			s.nextID = ev.ID + 1
		}
	case JournalRelease:
		ten, ok := s.leases[ev.ID]
		if !ok {
			return fmt.Errorf("sched: apply: release of unknown tenant %d", ev.ID)
		}
		for _, v := range ten.blue {
			s.ledger.Credit(v)
		}
		delete(s.leases, ev.ID)
	case JournalMigrate:
		ten, ok := s.leases[ev.ID]
		if !ok {
			return fmt.Errorf("sched: apply: migrate of unknown tenant %d", ev.ID)
		}
		for _, v := range ten.blue {
			s.ledger.Credit(v)
		}
		if err := s.checkBlues(ev.ID, ev.Blue); err != nil {
			// Undo the credits so a rejected event leaves state unchanged.
			for _, v := range ten.blue {
				s.ledger.Charge(v)
			}
			return err
		}
		for _, v := range ev.Blue {
			s.ledger.Charge(v)
		}
		ten.blue = append(ten.blue[:0], ev.Blue...)
		ten.phi = ev.Phi
	default:
		return fmt.Errorf("sched: apply: unknown op %d", ev.Op)
	}
	s.journalSeq = ev.Seq
	return nil
}

// LeaseIDs returns the ids of every active lease, unordered. It is a
// control-plane inventory API (drain loops, soarctl), not a hot path.
func (s *Scheduler) LeaseIDs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int64, 0, len(s.leases))
	for id := range s.leases {
		ids = append(ids, id)
	}
	return ids
}

// checkBlues validates a blue set against the current ledger: in range,
// no duplicates, residual capacity available. Caller holds mu.
func (s *Scheduler) checkBlues(id int64, blue []int) error {
	n := s.t.N()
	for i, v := range blue {
		if v < 0 || v >= n {
			return fmt.Errorf("sched: apply: tenant %d leases switch %d of %d", id, v, n)
		}
		for _, w := range blue[:i] {
			if w == v {
				return fmt.Errorf("sched: apply: tenant %d leases switch %d twice", id, v)
			}
		}
		if s.ledger.Residual(v) <= 0 {
			return fmt.Errorf("sched: apply: tenant %d needs exhausted switch %d", id, v)
		}
	}
	return nil
}
