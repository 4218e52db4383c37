package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame drives the frame decoder with arbitrary bytes: it must
// return an error on truncated, corrupt or oversized-length frames —
// never panic, and never allocate beyond the bytes the stream actually
// delivers (readBody grows in bounded chunks). Frames that do decode
// must re-encode canonically: encode(decode(frame)) is byte-identical,
// which pins the format for checkpoints that outlive the process that
// wrote them.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(m Message) {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(&Hello{Child: 3})
	seed(&Gather{Child: 1, Rows: 2, Cols: 3, X: []float64{1, 2, 3, 4.5, -1, 0}})
	seed(&Color{Budget: 4, L: 2})
	seed(&ReduceDone{Child: 7, Messages: 9, PhiBits: 0x3FF0000000000000})
	seed(&CkptHeader{Version: CkptVersion, Switches: 8, Tenants: 2, NextID: 5, TreeSum: 0xDEADBEEF})
	seed(&CkptLedger{Initial: []int32{4, 4, 0, 1 << 30}, Residual: []int32{4, 2, 0, 1 << 30}})
	seed(&CkptTenant{ID: 3, K: 2, PhiBits: 1, AllRedBits: 2, Blue: []uint32{1, 5}, LoadV: []uint32{6, 7}, LoadN: []uint32{2, 9}})
	seed(&CkptFooter{Tenants: 2, Sum: 0xFEEDFACE})
	seed(&Heartbeat{Shard: 1, Epoch: 3, Seq: 99})
	seed(&Epoch{Shard: 2, Epoch: 5, Node: 1001})
	seed(&CkptOffer{Shard: 0, Epoch: 1, Seq: 12, Bytes: 4096})
	seed(&LeaseDelta{Shard: 1, Epoch: 2, Seq: 13, Op: DeltaPlace, ID: 8, K: 2, PhiBits: 0x3FF0000000000000, Blue: []uint32{3, 4}, LoadV: []uint32{6}, LoadN: []uint32{2}})
	seed(&LeaseDelta{Shard: 1, Epoch: 2, Seq: 14, Op: DeltaRelease, ID: 8})
	// Load pairs that decode but break the canonical-pair rule the
	// receivers enforce (sched.SparseLoad.Check): a duplicate and a
	// descending switch, a zero count, a count past MaxInt32.
	seed(&CkptTenant{ID: 4, K: 1, Blue: []uint32{2}, LoadV: []uint32{7, 7, 3}, LoadN: []uint32{1, 0, 1 << 31}})
	seed(&LeaseDelta{Shard: 1, Epoch: 2, Seq: 15, Op: DeltaPlace, ID: 9, K: 1, Blue: []uint32{2}, LoadV: []uint32{7, 7, 3}, LoadN: []uint32{1, 0, 1 << 31}})
	// Adversarial shapes: oversized length claim, length lying about a
	// short stream, zero length, unknown type, truncated header.
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1<<20), byte(TypeGather)))
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 2, 99, 0})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: exactly what malformed bytes deserve
		}
		var first bytes.Buffer
		if err := Write(&first, m); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		m2, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		var second bytes.Buffer
		if err := Write(&second, m2); err != nil {
			t.Fatalf("re-decoded %T does not encode: %v", m2, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%T encoding is not canonical:\n  %x\nvs\n  %x", m, first.Bytes(), second.Bytes())
		}
	})
}

// FuzzDecodeReplicationStream drives the decoder the way a standby's
// attach loop does: many frames back to back on one connection. The
// replication protocol (internal/ha) trusts frame boundaries to resync
// after each message, so a corrupt frame mid-stream must produce an
// error at that frame — never a panic, never misparsing a later frame's
// bytes as a fresh header — and every frame that does decode must
// re-encode canonically. Seq monotonicity across decoded LeaseDeltas is
// the receiver's job (internal/ha re-attaches on gaps), not the
// decoder's, so it is not asserted here.
func FuzzDecodeReplicationStream(f *testing.F) {
	stream := func(ms ...Message) []byte {
		var buf bytes.Buffer
		for _, m := range ms {
			if err := Write(&buf, m); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	// A realistic attach: epoch handshake, checkpoint offer, two deltas,
	// a heartbeat.
	f.Add(stream(
		&Epoch{Shard: 0, Epoch: 1, Node: 2},
		&CkptOffer{Shard: 0, Epoch: 1, Seq: 3, Bytes: 0},
		&LeaseDelta{Shard: 0, Epoch: 1, Seq: 4, Op: DeltaPlace, ID: 1, K: 1, Blue: []uint32{0}, LoadV: []uint32{0}, LoadN: []uint32{1}},
		&LeaseDelta{Shard: 0, Epoch: 1, Seq: 5, Op: DeltaRelease, ID: 1},
		&Heartbeat{Shard: 0, Epoch: 1, Seq: 5},
	))
	// A fencing exchange: stale primary heartbeat, NACK with higher epoch.
	f.Add(stream(
		&Heartbeat{Shard: 1, Epoch: 1, Seq: 10},
		&Epoch{Shard: 1, Epoch: 2, Node: 7},
	))
	// A place whose load pairs are non-canonical (duplicate switch, zero
	// count, count past MaxInt32): it decodes here; the standby's absorb
	// is what turns it into a resync.
	f.Add(stream(
		&LeaseDelta{Shard: 0, Epoch: 1, Seq: 6, Op: DeltaPlace, ID: 2, K: 1, Blue: []uint32{1}, LoadV: []uint32{5, 5, 2}, LoadN: []uint32{0, 1 << 31, 1}},
		&Heartbeat{Shard: 0, Epoch: 1, Seq: 6},
	))
	// A migrate delta followed by torn trailing bytes.
	f.Add(append(stream(
		&LeaseDelta{Shard: 2, Epoch: 3, Seq: 9, Op: DeltaMigrate, ID: 4, K: 2, PhiBits: 1, Blue: []uint32{1, 2}},
	), 0x00, 0x00, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ {
			m, err := Read(r)
			if err != nil {
				return // stream ends at the first malformed or truncated frame
			}
			var first bytes.Buffer
			if err := Write(&first, m); err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", m, err)
			}
			m2, err := Read(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", m, err)
			}
			var second bytes.Buffer
			if err := Write(&second, m2); err != nil {
				t.Fatalf("re-decoded %T does not encode: %v", m2, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%T encoding is not canonical:\n  %x\nvs\n  %x", m, first.Bytes(), second.Bytes())
			}
		}
	})
}
