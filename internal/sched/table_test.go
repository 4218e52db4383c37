package sched

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"soar/internal/topology"
	"soar/internal/wire"
)

// tableBytes is the table's checkpoint.
func tableBytes(t testing.TB, tb *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTableApplyValidation drives the apply door with the corruption a
// buggy or malicious primary could emit: every refused record leaves the
// table — sequence, leases, ledger — exactly as it was.
func TestTableApplyValidation(t *testing.T) {
	tr := topology.MustBT(8)
	n := uint32(tr.N())
	tb := newTable(tr, NewLedger(tr.N(), 1))

	place := func(seq, id uint64, blue ...uint32) *wire.LeaseDelta {
		return &wire.LeaseDelta{Seq: seq, Op: wire.DeltaPlace, ID: id, K: uint32(len(blue)), Blue: blue}
	}
	loaded := func(v, c []uint32) *wire.LeaseDelta {
		return &wire.LeaseDelta{Seq: 2, Op: wire.DeltaPlace, ID: 1, LoadV: v, LoadN: c}
	}
	if err := tb.Apply(place(2, 0)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("seq gap: %v", err)
	}
	if err := tb.Apply(place(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	before := tableBytes(t, tb)
	cases := []struct {
		name string
		d    *wire.LeaseDelta
	}{
		{"duplicate id", place(2, 0, 1)},
		{"id beyond int64", place(2, 1<<63, 1)},
		{"blue out of range", place(2, 1, n)},
		{"blue beyond int32", place(2, 1, 1<<31)},
		{"blue twice", place(2, 1, 1, 1)},
		{"exhausted switch", place(2, 1, 0)},
		{"load switch out of range", loaded([]uint32{n}, []uint32{1})},
		{"load switches descending", loaded([]uint32{5, 3}, []uint32{1, 1})},
		{"load switch twice", loaded([]uint32{3, 3}, []uint32{1, 2})},
		{"load count zero", loaded([]uint32{3}, []uint32{0})},
		{"load count overflows int32", loaded([]uint32{3}, []uint32{math.MaxInt32 + 1})},
		{"load pairs unmatched", loaded([]uint32{3, 4}, []uint32{1})},
		{"release unknown", &wire.LeaseDelta{Seq: 2, Op: wire.DeltaRelease, ID: 99}},
		{"migrate unknown", &wire.LeaseDelta{Seq: 2, Op: wire.DeltaMigrate, ID: 99}},
		{"migrate to out-of-range switch", &wire.LeaseDelta{Seq: 2, Op: wire.DeltaMigrate, ID: 0, Blue: []uint32{n + 3}}},
		{"unknown op", &wire.LeaseDelta{Seq: 2, Op: 77, ID: 0}},
	}
	for _, tc := range cases {
		if err := tb.Apply(tc.d); err == nil {
			t.Errorf("%s: applied, want error", tc.name)
		}
		if got := tb.Seq(); got != 1 {
			t.Fatalf("%s: seq advanced to %d on a refused record", tc.name, got)
		}
		if err := tb.Audit(); err != nil {
			t.Fatalf("%s: state corrupted: %v", tc.name, err)
		}
		if !bytes.Equal(tableBytes(t, tb), before) {
			t.Fatalf("%s: a refused record changed the table", tc.name)
		}
	}
	mig := &wire.LeaseDelta{Seq: 2, Op: wire.DeltaMigrate, ID: 0, Blue: []uint32{2}}
	mig.SetPhi(1.5)
	if err := tb.Apply(mig); err != nil {
		t.Fatalf("valid migrate: %v", err)
	}
	l, err := tb.Lookup(0)
	if err != nil || len(l.Blue) != 1 || l.Blue[0] != 2 || l.Phi != 1.5 || l.K != 1 {
		t.Fatalf("migrated lease %+v (%v)", l, err)
	}
	if err := tb.Apply(&wire.LeaseDelta{Seq: 3, Op: wire.DeltaRelease, ID: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Lookup(0); !errors.Is(err, ErrNotFound) || tb.Audit() != nil || tb.Seq() != 3 {
		t.Fatalf("released lease still there (%v), audit %v, seq %d", err, tb.Audit(), tb.Seq())
	}
}

// TestAuditIDBoundary pins Audit's id check at its boundary: a lease
// filed at nextID − 1 is sound, a lease at nextID is one the table would
// issue again — the id-reissue fault the check exists to catch.
func TestAuditIDBoundary(t *testing.T) {
	tr := topology.MustBT(8)
	tb := newTable(tr, NewLedger(tr.N(), 1))
	if err := tb.Apply(&wire.LeaseDelta{Seq: 1, Op: wire.DeltaPlace, ID: 4, K: 1, Blue: []uint32{0}}); err != nil {
		t.Fatal(err)
	}
	if tb.nextID != 5 {
		t.Fatalf("next id %d after filing lease 4, want 5", tb.nextID)
	}
	if err := tb.Audit(); err != nil {
		t.Fatalf("lease at next id − 1: %v", err)
	}
	tb.nextID = 4 // the lease's own id is now the next one to be issued
	if err := tb.Audit(); err == nil {
		t.Fatal("audit passed a lease whose id is the next id")
	}
}

// hostileHeader is a well-formed checkpoint header claiming tenants
// tenant frames, followed by a ledger frame and nothing else.
func hostileHeader(t testing.TB, tr *topology.Tree, tenants uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range []wire.Message{
		&wire.CkptHeader{Version: wire.CkptVersion, Switches: uint32(tr.N()), Tenants: tenants, NextID: 1, TreeSum: tr.Fingerprint()},
		&wire.CkptLedger{Initial: make([]int32, tr.N()), Residual: make([]int32, tr.N())},
	} {
		if err := wire.Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRestoreTrustsNoClaimedCount is the regression test for restore
// sizing a slice and a map from the header's tenant count before reading
// a single tenant frame: a 60-byte stream claiming 2³³ tenants ended the
// process with "fatal error: runtime: out of memory", which no recover
// catches. The count is now only a loop bound: the stream is refused at
// the first frame it does not have, reason "frame".
func TestRestoreTrustsNoClaimedCount(t *testing.T) {
	tr := topology.MustBT(2)
	for _, tenants := range []uint64{1 << 33, 1 << 62} {
		stream := hostileHeader(t, tr, tenants)
		if len(stream) > 64 {
			t.Fatalf("hostile stream is %d bytes", len(stream))
		}
		var rej *rejectError
		if _, err := RestoreTable(tr, bytes.NewReader(stream), 0); !errors.As(err, &rej) || rej.reason != "frame" {
			t.Fatalf("%d tenants claimed: RestoreTable = %v, want a frame rejection", tenants, err)
		}
		s := New(tr, Config{Workers: 1})
		if err := s.Restore(bytes.NewReader(stream)); err == nil {
			t.Fatalf("%d tenants claimed: restored", tenants)
		}
		if got := s.met.ckptReject["frame"].Value(); got != 1 {
			t.Fatalf("%d tenants claimed: reason=frame counter %d, want 1", tenants, got)
		}
		s.Close()
	}
}

// FuzzRestore feeds arbitrary bytes to the restore door — which takes
// network bytes at every standby attach. It must never panic, and a
// stream it accepts must be a state: the audit holds, and the table's
// own checkpoint restores to a table equal in leases, ledger and next id
// (two checkpoints of one state being the same bytes, byte equality of
// the two encodings says all three).
func FuzzRestore(f *testing.F) {
	tr := topology.MustBT(32) // the fixture's tree
	ckpt, err := os.ReadFile("testdata/parent_pr12.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	for _, cut := range []int{0, 10, 60, len(ckpt) / 2, len(ckpt) - 1} {
		f.Add(ckpt[:cut])
	}
	f.Add(hostileHeader(f, tr, 1<<33))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := RestoreTable(tr, bytes.NewReader(data), 7)
		if err != nil {
			return
		}
		if err := tb.Audit(); err != nil {
			t.Fatalf("restored table fails its audit: %v", err)
		}
		first := tableBytes(t, tb)
		again, err := RestoreTable(tr, bytes.NewReader(first), tb.Seq())
		if err != nil {
			t.Fatalf("a restored table's checkpoint does not restore: %v", err)
		}
		if !bytes.Equal(tableBytes(t, again), first) || again.Seq() != 7 || !reflect.DeepEqual(again.Residual(), tb.Residual()) {
			t.Fatal("ckpt(restore(ckpt(restore(x)))) differs from ckpt(restore(x))")
		}
	})
}
