package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Replication frames (internal/ha) continue the numbering. A primary
// scheduler streams its state to warm standbys over this framing:
//
//	Epoch       (standby → primary, then primary → standby: the hello
//	             and its answer, each naming the sender's term)
//	CkptOffer   (primary → standby: a full PR-7 checkpoint follows)
//	...raw checkpoint stream, exactly CkptOffer.Bytes bytes...
//	LeaseDelta  × many (primary → standby: one committed mutation each)
//	Heartbeat   (primary → standby: liveness + journal high-water mark)
//
// Every frame carries the shard id and the sender's epoch. A standby
// walks away from a primary whose epoch is below the highest it has
// heard; a primary does not act on the epoch a hello names. Commits are
// fenced in one place, the shard's epoch register the scheduler
// consults under its commit lock (sched.Config.Fence), not at the wire.
const (
	TypeHeartbeat Type = iota + 32
	TypeEpoch
	TypeCkptOffer
	TypeLeaseDelta
)

// LeaseDelta operations: one committed control-plane mutation each.
const (
	// DeltaPlace admits a tenant: full lease (blues, costs, sparse load).
	DeltaPlace uint8 = 1 + iota
	// DeltaRelease frees a lease; only ID is meaningful.
	DeltaRelease
	// DeltaMigrate re-places a live lease (the re-packer moved its
	// blues); ID, K, PhiBits and Blue are meaningful, the load is not
	// resent.
	DeltaMigrate
)

// Heartbeat is the primary's periodic liveness beacon. Seq is the
// journal high-water mark, letting standbys measure replication lag.
type Heartbeat struct {
	Shard uint32
	Epoch uint64
	Seq   uint64
}

// Type implements Message.
func (Heartbeat) Type() Type { return TypeHeartbeat }

func (h Heartbeat) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, h.Shard)
	b = binary.BigEndian.AppendUint64(b, h.Epoch)
	return binary.BigEndian.AppendUint64(b, h.Seq)
}

func (h *Heartbeat) parseBody(b []byte) error {
	if len(b) != 20 {
		return fmt.Errorf("wire: heartbeat body %d bytes, want 20", len(b))
	}
	h.Shard = binary.BigEndian.Uint32(b)
	h.Epoch = binary.BigEndian.Uint64(b[4:])
	h.Seq = binary.BigEndian.Uint64(b[12:])
	return nil
}

// Epoch names a term. A standby opens its attachment with the highest
// epoch it has seen; a primary answers with its own, and the standby
// leaves a primary whose epoch is the lower of the two.
type Epoch struct {
	Shard uint32
	Epoch uint64
	// Node identifies the sender within the shard's membership.
	Node uint32
}

// Type implements Message.
func (Epoch) Type() Type { return TypeEpoch }

func (e Epoch) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, e.Shard)
	b = binary.BigEndian.AppendUint64(b, e.Epoch)
	return binary.BigEndian.AppendUint32(b, e.Node)
}

func (e *Epoch) parseBody(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("wire: epoch body %d bytes, want 16", len(b))
	}
	e.Shard = binary.BigEndian.Uint32(b)
	e.Epoch = binary.BigEndian.Uint64(b[4:])
	e.Node = binary.BigEndian.Uint32(b[12:])
	return nil
}

// CkptOffer precedes a checkpoint stream on standby attach: exactly
// Bytes bytes of raw checkpoint frames (CkptHeader … CkptFooter)
// follow this frame. Seq is the journal sequence the snapshot reflects;
// deltas at or below it are already folded in and must be skipped.
type CkptOffer struct {
	Shard uint32
	Epoch uint64
	Seq   uint64
	Bytes uint64
}

// Type implements Message.
func (CkptOffer) Type() Type { return TypeCkptOffer }

func (o CkptOffer) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, o.Shard)
	b = binary.BigEndian.AppendUint64(b, o.Epoch)
	b = binary.BigEndian.AppendUint64(b, o.Seq)
	return binary.BigEndian.AppendUint64(b, o.Bytes)
}

func (o *CkptOffer) parseBody(b []byte) error {
	if len(b) != 28 {
		return fmt.Errorf("wire: ckpt offer body %d bytes, want 28", len(b))
	}
	o.Shard = binary.BigEndian.Uint32(b)
	o.Epoch = binary.BigEndian.Uint64(b[4:])
	o.Seq = binary.BigEndian.Uint64(b[12:])
	o.Bytes = binary.BigEndian.Uint64(b[20:])
	return nil
}

// LeaseDelta replicates one committed mutation of the primary's control
// plane, in commit order: Seq increases by exactly one per delta, so a
// gap tells the standby it fell behind and must re-attach for a fresh
// checkpoint. Loads are sparse (switch, count) pairs like CkptTenant.
type LeaseDelta struct {
	Shard      uint32
	Epoch      uint64
	Seq        uint64
	Op         uint8
	ID         uint64
	K          uint32
	PhiBits    uint64
	AllRedBits uint64
	Blue       []uint32
	LoadV      []uint32
	LoadN      []uint32
}

// Type implements Message.
func (LeaseDelta) Type() Type { return TypeLeaseDelta }

// Phi returns the lease's utilization cost.
func (d LeaseDelta) Phi() float64 { return math.Float64frombits(d.PhiBits) }

// SetPhi stores the lease's utilization cost.
func (d *LeaseDelta) SetPhi(phi float64) { d.PhiBits = math.Float64bits(phi) }

// AllRed returns the tenant's no-aggregation utilization.
func (d LeaseDelta) AllRed() float64 { return math.Float64frombits(d.AllRedBits) }

// SetAllRed stores the tenant's no-aggregation utilization.
func (d *LeaseDelta) SetAllRed(phi float64) { d.AllRedBits = math.Float64bits(phi) }

func (d LeaseDelta) appendBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, d.Shard)
	b = binary.BigEndian.AppendUint64(b, d.Epoch)
	b = binary.BigEndian.AppendUint64(b, d.Seq)
	b = append(b, d.Op)
	b = binary.BigEndian.AppendUint64(b, d.ID)
	b = binary.BigEndian.AppendUint32(b, d.K)
	b = binary.BigEndian.AppendUint64(b, d.PhiBits)
	b = binary.BigEndian.AppendUint64(b, d.AllRedBits)
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.Blue)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(d.LoadV)))
	for _, v := range d.Blue {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	for i, v := range d.LoadV {
		b = binary.BigEndian.AppendUint32(b, v)
		b = binary.BigEndian.AppendUint32(b, d.LoadN[i])
	}
	return b
}

func (d *LeaseDelta) parseBody(b []byte) error {
	const fixed = 4 + 8 + 8 + 1 + 8 + 4 + 8 + 8 + 4 + 4
	if len(b) < fixed {
		return fmt.Errorf("wire: lease delta body %d bytes, want ≥ %d", len(b), fixed)
	}
	d.Shard = binary.BigEndian.Uint32(b)
	d.Epoch = binary.BigEndian.Uint64(b[4:])
	d.Seq = binary.BigEndian.Uint64(b[12:])
	d.Op = b[20]
	d.ID = binary.BigEndian.Uint64(b[21:])
	d.K = binary.BigEndian.Uint32(b[29:])
	d.PhiBits = binary.BigEndian.Uint64(b[33:])
	d.AllRedBits = binary.BigEndian.Uint64(b[41:])
	nb := uint64(binary.BigEndian.Uint32(b[49:]))
	nl := uint64(binary.BigEndian.Uint32(b[53:]))
	if d.Op < DeltaPlace || d.Op > DeltaMigrate {
		return fmt.Errorf("wire: lease delta op %d unknown", d.Op)
	}
	if 4*nb+8*nl > MaxFrame {
		return fmt.Errorf("wire: lease delta with %d blues, %d loads too large", nb, nl)
	}
	if uint64(len(b)-fixed) != 4*nb+8*nl {
		return fmt.Errorf("wire: lease delta body %d bytes for %d blues, %d loads", len(b), nb, nl)
	}
	d.Blue = make([]uint32, nb)
	for i := range d.Blue {
		d.Blue[i] = binary.BigEndian.Uint32(b[fixed+4*i:])
	}
	off := fixed + 4*int(nb)
	d.LoadV = make([]uint32, nl)
	d.LoadN = make([]uint32, nl)
	for i := range d.LoadV {
		d.LoadV[i] = binary.BigEndian.Uint32(b[off+8*i:])
		d.LoadN[i] = binary.BigEndian.Uint32(b[off+8*i+4:])
	}
	return nil
}
