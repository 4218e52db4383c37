package sched

import "soar/internal/wire"

// The commit log: the replication feed of internal/ha. When
// Config.Journal is set, the dispatcher emits one record per committed
// control-plane mutation — admission, release, re-packer migration — in
// commit order, each carrying a sequence number assigned under the
// commit lock. The record is the wire frame itself, a *wire.LeaseDelta
// with Seq, Op and the lease filled in (the hook stamps shard and
// epoch): what the scheduler commits, what travels and what a replica's
// Table.Apply folds in are one value. A table that applies the records
// of a checkpoint's sequence interval on top of that checkpoint is the
// primary's table exactly.
//
// Records are buffered on the dispatcher and flushed to the hook outside
// the lock, so a slow subscriber delays the dispatcher but never blocks
// concurrent Lookup/Residual readers. The hook runs on the dispatcher
// goroutine: it must hand off quickly (internal/ha fans out to buffered
// per-standby channels and drops laggards rather than stall admission).

// journalAppend records one committed mutation of ten. Callers hold mu
// (the dispatcher is the only caller, so jbuf needs no lock of its own);
// the copies make the record self-contained once the tenant record is
// pooled or migrated again. A release carries the id alone, a migration
// everything but the load, which does not change. Journaling costs
// allocations by design (the waived statements below); schedulers
// without a Journal hook stay on the 0 allocs/op admission contract.
//
//soar:hotpath
func (s *Scheduler) journalAppend(op uint8, ten *tenant) {
	if s.cfg.Journal == nil {
		return
	}
	s.tab.seq++
	d := &wire.LeaseDelta{Seq: s.tab.seq, Op: op, ID: uint64(ten.id)} //soar:coldpath replication journal enabled
	if op != wire.DeltaRelease {
		d.K = uint32(ten.k)
		d.SetPhi(ten.phi)
		d.SetAllRed(ten.allRed)
		d.Blue = make([]uint32, len(ten.blue)) //soar:coldpath replication journal enabled
		for i, v := range ten.blue {
			d.Blue[i] = uint32(v)
		}
	}
	if op == wire.DeltaPlace {
		load := ten.load.clone() //soar:coldpath replication journal enabled
		d.LoadV, d.LoadN = load.V, load.N
	}
	s.jbuf = append(s.jbuf, d) //soar:coldpath replication journal enabled
}

// flushJournal hands buffered records to the hook, outside mu and in
// commit order. Dispatcher-only, like the buffer itself.
//
//soar:hotpath
func (s *Scheduler) flushJournal() {
	if s.cfg.Journal == nil || len(s.jbuf) == 0 {
		return
	}
	for i, d := range s.jbuf {
		s.cfg.Journal(d) //soar:coldpath replication journal enabled
		s.jbuf[i] = nil
	}
	s.jbuf = s.jbuf[:0]
}

// JournalSeq returns the sequence number of the last journaled mutation
// (or, on a promoted replica, the last one its table applied).
func (s *Scheduler) JournalSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.seq
}

// LeaseIDs returns the ids of every active lease, unordered. It is a
// control-plane inventory API (drain loops, soarctl), not a hot path.
func (s *Scheduler) LeaseIDs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int64, 0, len(s.tab.leases))
	for id := range s.tab.leases {
		ids = append(ids, id)
	}
	return ids
}
