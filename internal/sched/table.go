package sched

import (
	"cmp"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"slices"

	"soar/internal/topology"
	"soar/internal/wire"
)

// Table is the control plane's passive state, the one piece of durable
// state the paper's online model has (Sec. 5.2): who leases which switch
// out of each switch's capacity. It is a capacity ledger, the lease
// records charged against it, the id the next admission receives and the
// sequence of the last commit-log record folded in.
//
// Everything that moves this state between processes goes through the
// table, and through one door each. A lease record that arrives from
// outside — a wire.CkptTenant of a checkpoint, the wire.LeaseDelta of a
// replicated admission or migration — enters by admit, which holds it to
// the canonical-pair rule and charges its switches against the ledger or
// refuses it. A checkpoint is therefore restored by admitting its
// records one by one into a fresh table (RestoreTable), a standby
// follows its primary by applying each commit-log record as it arrives
// (Apply), and Audit is the one proof that ledger and leases agree. A
// Scheduler serves a table (New, Serve); a warm standby of internal/ha
// holds one and nothing else, so a replica is bounded by its live leases
// by construction.
//
// A Table does no locking: its owner serializes access (the Scheduler
// under its commit lock, a standby under its own mutex).
type Table struct {
	t      *topology.Tree
	ledger *Ledger
	leases map[int64]*tenant
	nextID int64
	// seq numbers commit-log records densely: the sequence of the last
	// one journaled by the serving scheduler or applied by a replica.
	seq uint64
}

func newTable(t *topology.Tree, ledger *Ledger) *Table {
	return &Table{t: t, ledger: ledger, leases: make(map[int64]*tenant)}
}

// record builds a lease record from the fields a checkpoint tenant frame
// and a lease delta share. The load pairs are kept as they came — the
// frame is the receiver's — so admit must see the record before the
// table does.
func record(id uint64, k uint32, phi, allRed float64, blue, loadV, loadN []uint32) *tenant {
	ten := &tenant{
		id:     int64(id),
		k:      int(k),
		phi:    phi,
		allRed: allRed,
		blue:   make([]int, len(blue)),
		load:   SparseLoad{V: loadV, N: loadN},
	}
	for i, v := range blue {
		ten.blue[i] = int(v) // negative on a 32-bit target if v ≥ 2³¹: admit range-checks
	}
	return ten
}

// admit is the door: it files a lease record that came from outside the
// process, or refuses it and leaves the table as it was. The id must be
// fresh, the load pairs canonical, every leased switch in range, leased
// once and with residual capacity. The rejection reason (see
// restoreRejectReasons) rides on the error.
func (tb *Table) admit(ten *tenant) error {
	n := tb.ledger.N()
	if ten.id < 0 || ten.k < 0 {
		return rejectf("ids", "tenant %d has budget %d", ten.id, ten.k)
	}
	if _, live := tb.leases[ten.id]; live {
		return rejectf("ids", "duplicate tenant id %d", ten.id)
	}
	if err := ten.load.Check(n); err != nil {
		return rejectf("ids", "tenant %d: %w", ten.id, err)
	}
	// The scan for a switch leased twice stops at the first repeat, so a
	// hostile blue list costs O(n²) at most, whatever its length.
	for i, v := range ten.blue {
		if v < 0 || v >= n {
			return rejectf("ids", "tenant %d leases switch %d of %d", ten.id, v, n)
		}
		if slices.Contains(ten.blue[:i], v) {
			return rejectf("ids", "tenant %d leases switch %d twice", ten.id, v)
		}
		if tb.ledger.Residual(v) <= 0 {
			return rejectf("conservation", "tenant %d needs exhausted switch %d", ten.id, v)
		}
	}
	tb.file(ten)
	return nil
}

// file charges ten's switches and enters it in the table, unchecked:
// the serving scheduler's commit path, whose blues come from a solve
// restricted to Λ, and the tail of admit.
//
//soar:hotpath
func (tb *Table) file(ten *tenant) {
	for _, v := range ten.blue {
		tb.ledger.Charge(v)
	}
	tb.leases[ten.id] = ten
	if ten.id >= tb.nextID {
		tb.nextID = ten.id + 1
	}
}

// drop credits ten's switches and removes it from the table.
//
//soar:hotpath
func (tb *Table) drop(ten *tenant) {
	for _, v := range ten.blue {
		tb.ledger.Credit(v)
	}
	delete(tb.leases, ten.id)
}

// Apply folds one commit-log record into the table: the next in
// sequence, a known operation, and a mutation the ledger allows — an
// admission passes admit, a release or migration names a live lease, and
// a migration is a release and an admission of the same record under its
// new blues. A refused record leaves the table unchanged. Apply keeps
// d's load pairs: the frame must not be reused by the caller.
func (tb *Table) Apply(d *wire.LeaseDelta) error {
	if d.Seq != tb.seq+1 {
		return fmt.Errorf("sched: apply: record %d after %d (sequence gap)", d.Seq, tb.seq)
	}
	var err error
	switch d.Op {
	case wire.DeltaPlace:
		err = tb.admit(record(d.ID, d.K, d.Phi(), d.AllRed(), d.Blue, d.LoadV, d.LoadN))
	case wire.DeltaRelease, wire.DeltaMigrate:
		old, live := tb.leases[int64(d.ID)]
		if !live {
			err = fmt.Errorf("tenant %d is not live", d.ID)
			break
		}
		tb.drop(old)
		if d.Op == wire.DeltaMigrate {
			moved := record(d.ID, uint32(old.k), d.Phi(), old.allRed, d.Blue, old.load.V, old.load.N)
			if err = tb.admit(moved); err != nil {
				tb.file(old)
			}
		}
	default:
		err = errors.New("unknown operation")
	}
	if err != nil {
		return fmt.Errorf("sched: apply record %d (op %d): %w", d.Seq, d.Op, err)
	}
	tb.seq = d.Seq
	return nil
}

// Seq returns the sequence of the last commit-log record the table
// reflects.
func (tb *Table) Seq() uint64 { return tb.seq }

// SeedNextID raises the id the next admission receives to at least floor
// (it never lowers it). A replica calls it before it is served: its old
// primary acknowledged commits before any standby held their record, so
// the table's own high-water mark can be behind an id a client already
// holds.
func (tb *Table) SeedNextID(floor int64) { tb.nextID = max(tb.nextID, floor) }

// Lookup returns a copy of a lease.
func (tb *Table) Lookup(id int64) (*Lease, error) {
	ten, ok := tb.leases[id]
	if !ok {
		return nil, ErrNotFound
	}
	return &Lease{
		ID:     ten.id,
		Blue:   append([]int(nil), ten.blue...),
		K:      ten.k,
		Phi:    ten.phi,
		AllRed: ten.allRed,
		Load:   ten.load.dense(tb.ledger.N()),
	}, nil
}

// Residual returns a copy of the per-switch residual capacities.
func (tb *Table) Residual() []int { return slices.Clone(tb.ledger.residual) }

// Audit recomputes the capacity invariant from first principles and
// returns an error if the ledger and the lease set disagree: for every
// switch, residual = initial − (leases holding it) and residual ≥ 0,
// with the availability set Λ exactly {v : residual > 0}. It is the
// conservation proof: the chaos soak runs it after every kill/restore
// cycle, a replica before it serves; at O(switches + leases) it is cheap
// enough for production health checks.
func (tb *Table) Audit() error {
	n := tb.ledger.N()
	used := make([]int, n)
	for id, ten := range tb.leases {
		if ten.id != id {
			return fmt.Errorf("sched: audit: lease %d filed under id %d", ten.id, id)
		}
		if id >= tb.nextID {
			return fmt.Errorf("sched: audit: lease %d at or above next id %d", id, tb.nextID)
		}
		for _, v := range ten.blue {
			if v < 0 || v >= n {
				return fmt.Errorf("sched: audit: lease %d holds switch %d of %d", id, v, n)
			}
			used[v]++
		}
	}
	for v := 0; v < n; v++ {
		if tb.ledger.residual[v] < 0 {
			return fmt.Errorf("sched: audit: switch %d residual %d < 0", v, tb.ledger.residual[v])
		}
		if tb.ledger.initial[v]-used[v] != tb.ledger.residual[v] {
			return fmt.Errorf("sched: audit: switch %d over-committed: initial %d − %d leased ≠ residual %d",
				v, tb.ledger.initial[v], used[v], tb.ledger.residual[v])
		}
		if tb.ledger.avail[v] != (tb.ledger.residual[v] > 0) {
			return fmt.Errorf("sched: audit: switch %d availability %v disagrees with residual %d",
				v, tb.ledger.avail[v], tb.ledger.residual[v])
		}
	}
	return nil
}

// clone returns a deep copy: what a checkpoint of a serving scheduler
// encodes after the commit lock is released. Per lease it copies the
// record's blues and load pairs, a few dozen bytes: the pause admissions
// see (soar_ckpt_snapshot_seconds) grows with the leased racks, not with
// tenants × switches.
func (tb *Table) clone() *Table {
	c := &Table{
		t: tb.t,
		ledger: &Ledger{
			initial:  slices.Clone(tb.ledger.initial),
			residual: slices.Clone(tb.ledger.residual),
			avail:    slices.Clone(tb.ledger.avail),
		},
		leases: make(map[int64]*tenant, len(tb.leases)),
		nextID: tb.nextID,
		seq:    tb.seq,
	}
	recs := make([]tenant, 0, len(tb.leases))
	for id, ten := range tb.leases {
		recs = append(recs, *ten)
		r := &recs[len(recs)-1]
		r.blue = slices.Clone(ten.blue)
		r.load = ten.load.clone()
		c.leases[id] = r
	}
	return c
}

// encode writes the table to w in the internal/wire checkpoint format:
// CkptHeader, CkptLedger, one CkptTenant per lease, and a CkptFooter
// carrying an FNV-1a checksum of everything before it. Tenants go out in
// lease-id order: two checkpoints of one state are the same bytes,
// whatever order the map was walked in.
func (tb *Table) encode(w io.Writer) error {
	tenants := make([]*tenant, 0, len(tb.leases))
	for _, ten := range tb.leases {
		tenants = append(tenants, ten)
	}
	slices.SortFunc(tenants, func(a, b *tenant) int { return cmp.Compare(a.id, b.id) })
	h := fnv.New64a()
	hw := io.MultiWriter(w, h)

	hdr := &wire.CkptHeader{
		Version:  wire.CkptVersion,
		Switches: uint32(tb.ledger.N()),
		Tenants:  uint64(len(tenants)),
		NextID:   uint64(tb.nextID),
		TreeSum:  tb.t.Fingerprint(),
	}
	if err := wire.Write(hw, hdr); err != nil {
		return fmt.Errorf("sched: checkpoint header: %w", err)
	}
	led := &wire.CkptLedger{
		Initial:  make([]int32, tb.ledger.N()),
		Residual: make([]int32, tb.ledger.N()),
	}
	for v := range led.Initial {
		led.Initial[v] = int32(tb.ledger.initial[v])
		led.Residual[v] = int32(tb.ledger.residual[v])
	}
	if err := wire.Write(hw, led); err != nil {
		return fmt.Errorf("sched: checkpoint ledger: %w", err)
	}
	tf := new(wire.CkptTenant)
	for _, ten := range tenants {
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
			return fmt.Errorf("sched: checkpoint tenant %d: %w", ten.id, err)
		}
	}
	// The footer's checksum covers every byte before the footer; it goes
	// to w alone so reader and writer hash the same prefix.
	foot := &wire.CkptFooter{Tenants: uint64(len(tenants)), Sum: h.Sum64()}
	if err := wire.Write(w, foot); err != nil {
		return fmt.Errorf("sched: checkpoint footer: %w", err)
	}
	return nil
}

// readCkpt reads one typed frame through the checksum.
func readCkpt[M wire.Message](r io.Reader, h hash.Hash64) (M, error) {
	return wire.ReadTyped[M](io.TeeReader(r, h))
}

// RestoreTable reads a checkpoint of a control plane over tree t into a
// fresh table: the stream's ledger at full capacity, then every tenant
// frame admitted through the door a replicated admission goes through,
// so an over-committed switch, a repeated id or a non-canonical load is
// refused where it stands. The footer must authenticate the prefix and
// the ledger the stream claims must be the one its leases add up to. No
// size is taken on trust from the header: the table grows by the frames
// actually read, so r may be a network stream. seq is the commit-log
// sequence the checkpoint reflects, which the stream itself does not
// carry (a wire.CkptOffer does; a checkpoint file starts a log at 0).
//
// The restored ledger is the checkpoint's, not a configured one:
// recovery reproduces the instance that wrote it, config drift and all.
func RestoreTable(t *topology.Tree, r io.Reader, seq uint64) (*Table, error) {
	h := fnv.New64a()
	hdr, err := readCkpt[*wire.CkptHeader](r, h)
	if err != nil {
		return nil, rejectf("frame", "sched: restore header: %w", err)
	}
	if hdr.Version != wire.CkptVersion {
		return nil, rejectf("version", "sched: restore: checkpoint version %d, want %d", hdr.Version, wire.CkptVersion)
	}
	n := t.N()
	if int64(hdr.Switches) != int64(n) {
		return nil, rejectf("topology", "sched: restore: checkpoint for %d switches, tree has %d", hdr.Switches, n)
	}
	if sum := t.Fingerprint(); hdr.TreeSum != sum {
		return nil, rejectf("topology", "sched: restore: checkpoint topology fingerprint %x, tree is %x", hdr.TreeSum, sum)
	}
	led, err := readCkpt[*wire.CkptLedger](r, h)
	if err != nil {
		return nil, rejectf("frame", "sched: restore ledger: %w", err)
	}
	if len(led.Initial) != n {
		return nil, rejectf("topology", "sched: restore: ledger has %d switches, tree has %d", len(led.Initial), n)
	}
	caps := make([]int, n)
	for v, c := range led.Initial {
		if c < 0 {
			return nil, rejectf("conservation", "sched: restore: negative capacity at switch %d", v)
		}
		caps[v] = int(c)
	}
	tb := newTable(t, NewLedgerFromCaps(caps))
	tb.seq = seq
	for i := uint64(0); i < hdr.Tenants; i++ {
		tf, err := readCkpt[*wire.CkptTenant](r, h)
		if err != nil {
			return nil, rejectf("frame", "sched: restore tenant %d/%d: %w", i+1, hdr.Tenants, err)
		}
		if err := tb.admit(record(tf.ID, tf.K, tf.Phi(), tf.AllRed(), tf.Blue, tf.LoadV, tf.LoadN)); err != nil {
			return nil, fmt.Errorf("sched: restore: %w", err)
		}
	}
	// Checksum before the footer: the footer authenticates the prefix.
	sum := h.Sum64()
	foot, err := readCkpt[*wire.CkptFooter](r, h)
	if err != nil {
		return nil, rejectf("frame", "sched: restore footer: %w", err)
	}
	if foot.Tenants != hdr.Tenants {
		return nil, rejectf("checksum", "sched: restore: footer counts %d tenants, header %d", foot.Tenants, hdr.Tenants)
	}
	if foot.Sum != sum {
		return nil, rejectf("checksum", "sched: restore: checksum %x, stream hashes to %x — checkpoint truncated or corrupted", foot.Sum, sum)
	}
	// Admission charged every lease against the full ledger, so what is
	// left of each switch is what the stream must say is left of it —
	// nothing double-committed, nothing leaked.
	for v, c := range led.Residual {
		if int(c) != tb.ledger.residual[v] {
			return nil, rejectf("conservation", "sched: restore: switch %d conserves nothing: initial %d − %d leased ≠ residual %d",
				v, led.Initial[v], tb.ledger.Used(v), c)
		}
	}
	if int64(hdr.NextID) < tb.nextID {
		return nil, rejectf("ids", "sched: restore: next id %d would reissue live id %d", int64(hdr.NextID), tb.nextID-1)
	}
	tb.nextID = int64(hdr.NextID)
	return tb, nil
}
