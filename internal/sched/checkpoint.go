package sched

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// This file makes a serving scheduler's control-plane state durable.
// The state itself — ledger, lease records, id high-water mark — and
// the only code that encodes, restores and audits it live in the Table
// (table.go); what is here is the serving side: taking a consistent copy
// of the table without stalling admission, swapping a restored table in
// before traffic, and the soar_ckpt_* metrics and spans around both.
//
// The recovery model is snapshot-consistency: a checkpoint is taken on
// the dispatcher goroutine under mu, so it observes every lease either
// fully committed or not at all (commit publishes each lease atomically
// under the same lock) and never a re-packing round in progress (a
// round credits a candidate's slots while it re-solves it with mu
// released; the dispatcher runs rounds and snapshots one after the
// other). Leases admitted
// after the snapshot are lost on restore — exactly the contract of
// periodic checkpointing; the chaos soak (soak_test.go) churns tenants
// through kill/restore cycles and proves what survives is conserved:
// lease-for-lease identical, residuals non-negative, no switch ever
// double-committed.

// snapshot obtains a consistent copy of the table from the dispatcher
// (an opCheckpoint request, see runBatch), to be encoded after mu is
// released so slow sinks (disk, HTTP) never block admission. Once the
// scheduler is closed there is no dispatcher to ask and no re-packer to
// race: wait for the background goroutines to exit and copy directly.
func (s *Scheduler) snapshot() *Table {
	r := s.reqPool.Get().(*request)
	r.op, r.t0 = opCheckpoint, time.Now()
	if err := s.submit(r); err != nil {
		s.reqPool.Put(r)
		s.bg.Wait()
		return s.snapshotState()
	}
	<-r.done
	snap, err := r.snap, r.err
	r.snap = nil
	s.finish(r)
	if err != nil { // Close drained the queue before the dispatcher got to it
		s.bg.Wait()
		return s.snapshotState()
	}
	return snap
}

// snapshotState copies the table under mu. The lock is the scheduler's
// //soar:critical commit lock, so soarlint's lockdiscipline analyzer
// proves this snapshot never blocks admission on a channel, a solve or a
// pool Get — it copies and releases. Callers are the dispatcher, or
// anyone once the dispatcher has exited.
func (s *Scheduler) snapshotState() *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.clone()
}

// countingWriter counts bytes through to w, feeding the
// soar_ckpt_bytes_total family and the ckpt.encode span.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Checkpoint writes the scheduler's durable state — capacity ledger,
// every active lease, and the tenant-id high-water mark — to w in the
// internal/wire checkpoint format. The snapshot is consistent: it is
// taken atomically with respect to commits, releases and re-packing
// rounds, then encoded outside the lock. Checkpoint is safe to call
// concurrently with serving traffic and with other Checkpoints.
func (s *Scheduler) Checkpoint(w io.Writer) error {
	_, err := s.CheckpointSeq(w)
	return err
}

// CheckpointSeq is Checkpoint returning the journal sequence number the
// snapshot reflects: every journaled mutation with Seq ≤ the returned
// value is folded into the stream, every later one is not. The
// replication layer (internal/ha) offers checkpoints to standbys
// stamped with this sequence so delta replay starts exactly where the
// snapshot ends.
func (s *Scheduler) CheckpointSeq(w io.Writer) (uint64, error) {
	t0 := time.Now()
	cw := &countingWriter{w: w}
	snap := s.snapshot()
	err := snap.encode(cw)
	d := time.Since(t0)
	if err == nil {
		s.met.ckptSaves.Inc()
		s.met.ckptBytes.Add(uint64(cw.n))
		s.met.ckptSaveSeconds.Observe(d.Seconds())
	}
	// Span v1 is bytes encoded, v2 flags failure.
	v2 := int64(0)
	if err != nil {
		v2 = 1
	}
	s.met.tr.Record(s.met.opCkptEncode, t0, d, cw.n, v2)
	return snap.seq, err
}

// Restore rejection reasons, the label values of the
// soar_ckpt_restore_reject_total counter family. "frame" is a stream
// that does not decode (truncation, garbage, wrong frame type);
// "topology" covers both a switch-count and a fingerprint mismatch;
// "checksum" covers the footer failing to authenticate the prefix;
// "ids" covers duplicate or out-of-range tenant ids and switches, and
// load pairs that break the canonical-pair rule (SparseLoad.Check);
// "conservation" is a lease on an exhausted switch or a ledger that is
// not the one the leases add up to; "busy" is a restore into a scheduler
// that already holds leases.
var restoreRejectReasons = []string{
	"frame", "version", "topology", "checksum", "ids", "conservation", "busy",
}

// rejectError carries the rejection reason through the error chain of
// the table's door and of RestoreTable, so Restore can classify it into
// the labeled counter.
type rejectError struct {
	reason string
	err    error
}

func (e *rejectError) Error() string { return e.err.Error() }
func (e *rejectError) Unwrap() error { return e.err }

func rejectf(reason, format string, args ...any) error {
	return &rejectError{reason: reason, err: fmt.Errorf(format, args...)}
}

// Restore replays a checkpoint into a freshly constructed scheduler: it
// must be called before the scheduler has admitted any tenant (and
// before traffic is offered — restoring mid-serve races the solve
// pipeline's lock-free ledger reads). The entire stream is read into a
// fresh table and proved there (RestoreTable) and only then swapped in:
// a bad checkpoint leaves the scheduler exactly as it was.
//
// The restored ledger replaces the capacities the scheduler was
// constructed with: recovery reproduces the crashed instance, config
// drift and all.
func (s *Scheduler) Restore(r io.Reader) error {
	s.met.ckptRestoreAttempts.Inc()
	// The two spans split restore latency into its phases.
	t0 := time.Now()
	tab, err := RestoreTable(s.t, r, 0)
	if err == nil {
		s.met.tr.Record(s.met.opCkptValidate, t0, time.Since(t0), int64(len(tab.leases)), 0)
		err = s.install(tab)
	}
	if err != nil {
		s.met.ckptRestoreFail.Inc()
		reason := "frame"
		var rej *rejectError
		if errors.As(err, &rej) {
			reason = rej.reason
		}
		if c := s.met.ckptReject[reason]; c != nil {
			c.Inc()
		}
		return err
	}
	s.met.ckptRestores.Inc()
	return nil
}

// install makes a restored table the one the scheduler serves; the
// journal sequence carries on from the scheduler's own.
func (s *Scheduler) install(tab *Table) error {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tab.leases) != 0 {
		return rejectf("busy", "sched: restore into a scheduler with %d active leases", len(s.tab.leases))
	}
	tab.seq = s.tab.seq
	s.tab = tab
	s.met.tr.Record(s.met.opCkptInstall, t0, time.Since(t0), int64(len(tab.leases)), 0)
	return nil
}

// Audit proves conservation on the served table (Table.Audit).
func (s *Scheduler) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Audit()
}
