package sched

import (
	"cmp"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"slices"
	"time"

	"soar/internal/wire"
)

// This file makes the scheduler's control-plane state durable. Before
// it, a crash lost every tenant: the ledger residuals and lease records
// lived only in process memory. Checkpoint serializes both as a stream
// of internal/wire frames (CkptHeader, CkptLedger, one CkptTenant per
// lease, CkptFooter carrying an FNV-1a checksum of everything before
// it); Restore validates the stream — format, topology fingerprint,
// checksum, and full capacity conservation — before installing any of
// it, so a truncated or corrupted checkpoint is rejected atomically.
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

// ckptSnapshot is the under-lock copy Checkpoint serializes after
// releasing mu, so slow sinks (disk, HTTP) never block admission.
type ckptSnapshot struct {
	initial  []int
	residual []int
	nextID   int64
	seq      uint64
	tenants  []tenant // map order as copied; checkpoint sorts them by id
}

// snapshot obtains a consistent copy of the durable state from the
// dispatcher (an opCheckpoint request, see runBatch). Once the scheduler
// is closed there is no dispatcher to ask and no re-packer to race:
// wait for the background goroutines to exit and copy directly.
func (s *Scheduler) snapshot() ckptSnapshot {
	r := s.reqPool.Get().(*request)
	r.op, r.t0 = opCheckpoint, time.Now()
	if err := s.submit(r); err != nil {
		s.reqPool.Put(r)
		s.bg.Wait()
		return s.snapshotState()
	}
	<-r.done
	snap, err := r.snap, r.err
	r.snap = ckptSnapshot{}
	s.finish(r)
	if err != nil { // Close drained the queue before the dispatcher got to it
		s.bg.Wait()
		return s.snapshotState()
	}
	return snap
}

// snapshotState deep-copies the durable state under mu. The lock is
// the scheduler's //soar:critical commit lock, so soarlint's
// lockdiscipline analyzer proves this snapshot never blocks admission
// on a channel, a solve or a pool Get — it copies and releases. What it
// copies per lease is the record's blues and load pairs, a few dozen
// bytes: the pause admissions see (soar_ckpt_snapshot_seconds) grows
// with the leased racks, not with tenants × switches.
// Callers are the dispatcher, or anyone once the dispatcher has exited.
func (s *Scheduler) snapshotState() ckptSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := ckptSnapshot{
		initial:  append([]int(nil), s.ledger.initial...),
		residual: append([]int(nil), s.ledger.residual...),
		nextID:   s.nextID,
		seq:      s.journalSeq,
		tenants:  make([]tenant, 0, len(s.leases)),
	}
	for _, ten := range s.leases {
		c := *ten
		c.blue = append([]int(nil), ten.blue...)
		c.load = ten.load.clone()
		snap.tenants = append(snap.tenants, c)
	}
	return snap
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
	seq, err := s.checkpoint(cw)
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
	return seq, err
}

func (s *Scheduler) checkpoint(w io.Writer) (uint64, error) {
	snap := s.snapshot()
	// Lease-id order, sorted outside the lock: two checkpoints of one
	// state are the same bytes, whatever order the map was walked in.
	slices.SortFunc(snap.tenants, func(a, b tenant) int { return cmp.Compare(a.id, b.id) })
	h := fnv.New64a()
	hw := io.MultiWriter(w, h)

	hdr := &wire.CkptHeader{
		Version:  wire.CkptVersion,
		Switches: uint32(s.t.N()),
		Tenants:  uint64(len(snap.tenants)),
		NextID:   uint64(snap.nextID),
		TreeSum:  s.t.Fingerprint(),
	}
	if err := wire.Write(hw, hdr); err != nil {
		return 0, fmt.Errorf("sched: checkpoint header: %w", err)
	}
	led := &wire.CkptLedger{
		Initial:  make([]int32, len(snap.initial)),
		Residual: make([]int32, len(snap.residual)),
	}
	for v := range snap.initial {
		led.Initial[v] = int32(snap.initial[v])
		led.Residual[v] = int32(snap.residual[v])
	}
	if err := wire.Write(hw, led); err != nil {
		return 0, fmt.Errorf("sched: checkpoint ledger: %w", err)
	}
	tf := new(wire.CkptTenant)
	for i := range snap.tenants {
		ten := &snap.tenants[i]
		tf.ID, tf.K = uint64(ten.id), uint32(ten.k)
		tf.SetPhi(ten.phi)
		tf.SetAllRed(ten.allRed)
		tf.Blue = tf.Blue[:0]
		for _, v := range ten.blue {
			tf.Blue = append(tf.Blue, uint32(v))
		}
		// The record's pairs are the frame's pairs.
		tf.LoadV, tf.LoadN = ten.load.V, ten.load.N
		if err := wire.Write(hw, tf); err != nil {
			return 0, fmt.Errorf("sched: checkpoint tenant %d: %w", ten.id, err)
		}
	}
	// The footer's checksum covers every byte before the footer; it goes
	// to w alone so reader and writer hash the same prefix.
	foot := &wire.CkptFooter{Tenants: uint64(len(snap.tenants)), Sum: h.Sum64()}
	if err := wire.Write(w, foot); err != nil {
		return 0, fmt.Errorf("sched: checkpoint footer: %w", err)
	}
	return snap.seq, nil
}

// Restore rejection reasons, the label values of the
// soar_ckpt_restore_reject_total counter family. "frame" is a stream
// that does not decode (truncation, garbage, wrong frame type);
// "topology" covers both a switch-count and a fingerprint mismatch;
// "checksum" covers the footer failing to authenticate the prefix;
// "ids" covers duplicate or out-of-range tenant ids and switches, and
// load pairs that break the canonical-pair rule (SparseLoad.Check);
// "busy" is a restore into a scheduler that already holds leases.
var restoreRejectReasons = []string{
	"frame", "version", "topology", "checksum", "ids", "conservation", "busy",
}

// rejectError carries the rejection reason through the restore error
// chain so Restore can classify it into the labeled counter.
type rejectError struct {
	reason string
	err    error
}

func (e *rejectError) Error() string { return e.err.Error() }
func (e *rejectError) Unwrap() error { return e.err }

func rejectf(reason, format string, args ...any) error {
	return &rejectError{reason: reason, err: fmt.Errorf(format, args...)}
}

// readCkpt reads one typed frame through the checksum.
func readCkpt[M wire.Message](r io.Reader, h hash.Hash64) (M, error) {
	return wire.ReadTyped[M](io.TeeReader(r, h))
}

// Restore replays a checkpoint into a freshly constructed scheduler: it
// must be called before the scheduler has admitted any tenant (and
// before traffic is offered — restoring mid-serve races the solve
// pipeline's lock-free ledger reads). The entire stream is read and
// validated first — version, topology fingerprint, checksum, ledger
// shape, and conservation (residual[v] = initial[v] − Σ leases on v ≥ 0
// for every switch) — and only then installed, atomically: a bad
// checkpoint leaves the scheduler exactly as it was.
//
// The restored ledger replaces the capacities the scheduler was
// constructed with: recovery reproduces the crashed instance, config
// drift and all.
func (s *Scheduler) Restore(r io.Reader) error {
	s.met.ckptRestoreAttempts.Inc()
	if err := s.restore(r); err != nil {
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

func (s *Scheduler) restore(r io.Reader) error {
	t0 := time.Now()
	h := fnv.New64a()
	hdr, err := readCkpt[*wire.CkptHeader](r, h)
	if err != nil {
		return rejectf("frame", "sched: restore header: %w", err)
	}
	if hdr.Version != wire.CkptVersion {
		return rejectf("version", "sched: restore: checkpoint version %d, want %d", hdr.Version, wire.CkptVersion)
	}
	n := s.t.N()
	if int(hdr.Switches) != n {
		return rejectf("topology", "sched: restore: checkpoint for %d switches, tree has %d", hdr.Switches, n)
	}
	if sum := s.t.Fingerprint(); hdr.TreeSum != sum {
		return rejectf("topology", "sched: restore: checkpoint topology fingerprint %x, tree is %x", hdr.TreeSum, sum)
	}
	led, err := readCkpt[*wire.CkptLedger](r, h)
	if err != nil {
		return rejectf("frame", "sched: restore ledger: %w", err)
	}
	if len(led.Initial) != n {
		return rejectf("topology", "sched: restore: ledger has %d switches, tree has %d", len(led.Initial), n)
	}

	tenants := make([]*tenant, 0, hdr.Tenants)
	used := make([]int, n)
	seen := make(map[int64]bool, hdr.Tenants)
	// blueOf[v] is 1 + the index of the last tenant seen leasing v: one
	// stamp slice finds a switch leased twice by one tenant.
	blueOf := make([]uint64, n)
	maxID := int64(-1)
	for i := uint64(0); i < hdr.Tenants; i++ {
		tf, err := readCkpt[*wire.CkptTenant](r, h)
		if err != nil {
			return rejectf("frame", "sched: restore tenant %d/%d: %w", i+1, hdr.Tenants, err)
		}
		// The decoded pairs become the record's, so they are held to the
		// canonical-pair rule here and nowhere later.
		ten := &tenant{
			id:     int64(tf.ID),
			k:      int(tf.K),
			phi:    tf.Phi(),
			allRed: tf.AllRed(),
			blue:   make([]int, len(tf.Blue)),
			load:   SparseLoad{V: tf.LoadV, N: tf.LoadN},
		}
		if seen[ten.id] {
			return rejectf("ids", "sched: restore: duplicate tenant id %d", ten.id)
		}
		seen[ten.id] = true
		if ten.id > maxID {
			maxID = ten.id
		}
		for j, v := range tf.Blue {
			if int64(v) >= int64(n) {
				return rejectf("ids", "sched: restore: tenant %d leases switch %d of %d", ten.id, v, n)
			}
			if blueOf[v] == i+1 {
				return rejectf("ids", "sched: restore: tenant %d leases switch %d twice", ten.id, v)
			}
			blueOf[v] = i + 1
			ten.blue[j] = int(v)
			used[v]++
		}
		if err := ten.load.Check(n); err != nil {
			return rejectf("ids", "sched: restore: tenant %d: %w", ten.id, err)
		}
		tenants = append(tenants, ten)
	}
	// Checksum before the footer: the footer authenticates the prefix.
	sum := h.Sum64()
	foot, err := readCkpt[*wire.CkptFooter](r, h)
	if err != nil {
		return rejectf("frame", "sched: restore footer: %w", err)
	}
	if foot.Tenants != hdr.Tenants {
		return rejectf("checksum", "sched: restore: footer counts %d tenants, header %d", foot.Tenants, hdr.Tenants)
	}
	if foot.Sum != sum {
		return rejectf("checksum", "sched: restore: checksum %x, stream hashes to %x — checkpoint truncated or corrupted", foot.Sum, sum)
	}
	// Conservation: the ledger must equal initial minus exactly the
	// restored leases — nothing double-committed, nothing leaked.
	for v := 0; v < n; v++ {
		if led.Residual[v] < 0 || led.Initial[v] < 0 {
			return rejectf("conservation", "sched: restore: negative capacity at switch %d", v)
		}
		if int(led.Initial[v])-used[v] != int(led.Residual[v]) {
			return rejectf("conservation", "sched: restore: switch %d conserves nothing: initial %d − %d leased ≠ residual %d",
				v, led.Initial[v], used[v], led.Residual[v])
		}
	}
	if nextID := int64(hdr.NextID); nextID <= maxID {
		return rejectf("ids", "sched: restore: next id %d would reissue live id %d", nextID, maxID)
	}
	// Everything read and proved; what remains is installation. The two
	// spans split restore latency into its phases.
	s.met.tr.Record(s.met.opCkptValidate, t0, time.Since(t0), int64(hdr.Tenants), 0)
	t1 := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.leases) != 0 {
		return rejectf("busy", "sched: restore into a scheduler with %d active leases", len(s.leases))
	}
	for v := 0; v < n; v++ {
		s.ledger.initial[v] = int(led.Initial[v])
		s.ledger.residual[v] = int(led.Residual[v])
		s.ledger.avail[v] = led.Residual[v] > 0
	}
	for _, ten := range tenants {
		s.leases[ten.id] = ten
	}
	s.nextID = int64(hdr.NextID)
	s.met.tr.Record(s.met.opCkptInstall, t1, time.Since(t1), int64(len(tenants)), 0)
	return nil
}

// Audit recomputes the capacity invariant from first principles and
// returns an error if the ledger and the lease set disagree: for every
// switch, residual = initial − (leases holding it) and residual ≥ 0,
// with the availability set Λ exactly {v : residual > 0}. The chaos
// soak calls it after every kill/restore cycle; it is cheap enough
// (O(switches + leases)) to call in production health checks.
func (s *Scheduler) Audit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.ledger.N()
	used := make([]int, n)
	for id, ten := range s.leases {
		if ten.id != id {
			return fmt.Errorf("sched: audit: lease %d filed under id %d", ten.id, id)
		}
		if id >= s.nextID {
			return fmt.Errorf("sched: audit: lease %d at or above next id %d", id, s.nextID)
		}
		for _, v := range ten.blue {
			if v < 0 || v >= n {
				return fmt.Errorf("sched: audit: lease %d holds switch %d of %d", id, v, n)
			}
			used[v]++
		}
	}
	for v := 0; v < n; v++ {
		if s.ledger.residual[v] < 0 {
			return fmt.Errorf("sched: audit: switch %d residual %d < 0", v, s.ledger.residual[v])
		}
		if s.ledger.initial[v]-used[v] != s.ledger.residual[v] {
			return fmt.Errorf("sched: audit: switch %d over-committed: initial %d − %d leased ≠ residual %d",
				v, s.ledger.initial[v], used[v], s.ledger.residual[v])
		}
		if s.ledger.avail[v] != (s.ledger.residual[v] > 0) {
			return fmt.Errorf("sched: audit: switch %d availability %v disagrees with residual %d",
				v, s.ledger.avail[v], s.ledger.residual[v])
		}
	}
	return nil
}
