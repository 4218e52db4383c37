package sched

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"soar/internal/load"
	"soar/internal/topology"
	"soar/internal/wire"
)

// tenantShapes returns the four load shapes the lease record must hold
// exactly: every rack loaded, 8 racks, one rack, and no load at all.
func tenantShapes(tr *topology.Tree, rng *rand.Rand) map[string][]int {
	n := tr.N()
	single := make([]int, n)
	single[tr.Leaves()[len(tr.Leaves())/2]] = 9
	return map[string][]int{
		"dense":       load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng),
		"8-rack":      load.GenerateSparse(tr, load.PaperUniform(), 8, rng),
		"single-rack": single,
		"all-zero":    make([]int, n),
	}
}

// checkpointBytes is Checkpoint into a fresh buffer.
func checkpointBytes(t testing.TB, s *Scheduler) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertScratchZero proves the re-packer left its dense scratch vector
// all-zero. The caller has just returned from a synchronous RepackNow
// and runs no background ticker, so the dispatcher is not inside a
// round and the read is ordered after its writes.
func assertScratchZero(t *testing.T, s *Scheduler) {
	t.Helper()
	for v, l := range s.bgLoad {
		if l != 0 {
			t.Fatalf("re-packer scratch holds load %d at switch %d after the round", l, v)
		}
	}
}

// TestLeaseTableFootprint: 5000 standing 8-rack tenants on BT(2048).
// One dense load vector per lease was 16 KB of lease table per tenant
// (82 MB here, most of the daemon's resident set); the pairs are a few
// hundred bytes a lease.
func TestLeaseTableFootprint(t *testing.T) {
	const tenants, racks, k = 5000, 8, 4
	tr := topology.MustBT(2048)
	s := New(tr, Config{Workers: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(15))
	// Warm the engine and the request pool so only lease records grow.
	warm, err := s.Place(load.GenerateSparse(tr, load.PaperUniform(), racks, rng), k)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(warm.ID); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var lease Lease
	for i := 0; i < tenants; i++ {
		if err := s.PlaceInto(load.GenerateSparse(tr, load.PaperUniform(), racks, rng), k, &lease); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := s.Snapshot().Tenants; got != tenants {
		t.Fatalf("%d leases standing, want %d", got, tenants)
	}
	const limit = 4 << 20
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d leases retain %d bytes", tenants, grown)
	if grown >= limit {
		t.Fatalf("%d leases retain %d bytes, want < %d", tenants, grown, limit)
	}
	runtime.KeepAlive(s)
}

// TestLookupDensifiesTheRecord: Lease.Load stays a dense caller-owned
// vector — from Place and from Lookup — whatever the tenant's shape,
// and writing to it cannot reach the pairs the scheduler keeps.
func TestLookupDensifiesTheRecord(t *testing.T) {
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 4, Workers: 1})
	defer s.Close()
	for name, loads := range tenantShapes(tr, rand.New(rand.NewSource(4))) {
		placed, err := s.Place(loads, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(placed.Load, loads) {
			t.Fatalf("%s: Place returned load %v, want %v", name, placed.Load, loads)
		}
		got, err := s.Lookup(placed.ID)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Load, loads) {
			t.Fatalf("%s: Lookup load %v, want %v", name, got.Load, loads)
		}
		for v := range got.Load {
			got.Load[v] = -77
			placed.Load[v] = -77
		}
		again, err := s.Lookup(placed.ID)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(again.Load, loads) {
			t.Fatalf("%s: caller mutation reached the lease record: %v", name, again.Load)
		}
	}
}

// TestPlaceRejectsLoadBeyondInt32: a count the pairs cannot carry is a
// validation error at the door, not a truncated record.
func TestPlaceRejectsLoadBeyondInt32(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: no such load exists")
	}
	tr := topology.MustBT(8)
	s := New(tr, Config{Workers: 1})
	defer s.Close()
	loads := make([]int, tr.N())
	big := int64(math.MaxInt32) + 1
	loads[tr.N()-1] = int(big)
	if _, err := s.Place(loads, 1); err == nil {
		t.Fatal("load above MaxInt32 admitted")
	}
	loads[tr.N()-1] = math.MaxInt32
	if _, err := s.Place(loads, 1); err != nil {
		t.Fatalf("load of MaxInt32: %v", err)
	}
}

// TestCheckpointRoundTripIsByteIdentical is the oracle of the one lease
// form: a checkpoint is a function of the state alone (tenants go out in
// id order, not map order), and restoring it into a fresh scheduler and
// checkpointing that reproduces it byte for byte — for every tenant
// shape, and again after a re-packing round and a release/re-place
// cycle have rewritten records in place.
func TestCheckpointRoundTripIsByteIdentical(t *testing.T) {
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(9))
	s := New(tr, Config{Capacity: 1, Workers: 2})
	defer s.Close()

	roundTrip := func(stage string) {
		t.Helper()
		first := checkpointBytes(t, s)
		if second := checkpointBytes(t, s); !bytes.Equal(first, second) {
			t.Fatalf("%s: two checkpoints of one state differ", stage)
		}
		fresh := New(tr, Config{Capacity: 1, Workers: 1})
		defer fresh.Close()
		if err := fresh.Restore(bytes.NewReader(first)); err != nil {
			t.Fatalf("%s: restore: %v", stage, err)
		}
		if err := fresh.Audit(); err != nil {
			t.Fatalf("%s: audit: %v", stage, err)
		}
		if again := checkpointBytes(t, fresh); !bytes.Equal(first, again) {
			t.Fatalf("%s: ckpt(restore(ckpt(s))) differs from ckpt(s): %d vs %d bytes", stage, len(again), len(first))
		}
	}

	shapes := tenantShapes(tr, rng)
	var ids []int64
	// Fragment first (capacity 1: later tenants place around earlier
	// ones), so the re-packing round below has something to migrate.
	for _, name := range []string{"dense", "8-rack", "single-rack", "all-zero", "dense", "8-rack"} {
		lease, err := s.Place(shapes[name], 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ids = append(ids, lease.ID)
	}
	roundTrip("placed")

	if err := s.Release(ids[0]); err != nil {
		t.Fatal(err)
	}
	moved, _, err := s.RepackNow(len(ids))
	if err != nil || moved == 0 {
		t.Fatalf("repack moved %d (%v); the oracle needs a migrated record", moved, err)
	}
	assertScratchZero(t, s)
	roundTrip("repacked")

	// Release and re-place: the pooled record of a dense tenant is
	// reused for a single-rack one, and the other way round.
	if err := s.Release(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(ids[2]); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"single-rack", "dense", "all-zero"} {
		if _, err := s.Place(shapes[name], 2); err != nil {
			t.Fatalf("re-place %s: %v", name, err)
		}
	}
	roundTrip("re-placed")
}

// TestRestoresParentCheckpoint: the on-disk format did not move with
// the in-memory one. testdata/parent_pr12.ckpt was written by the
// commit before the lease table went sparse (dense records, map-order
// tenants); parent_pr12.json is what that scheduler's Lookup and
// Residual returned for the same state.
func TestRestoresParentCheckpoint(t *testing.T) {
	ckpt, err := os.ReadFile("testdata/parent_pr12.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/parent_pr12.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Residual []int
		Leases   []*Lease
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	s := New(topology.MustBT(32), Config{Capacity: 2, Workers: 1})
	defer s.Close()
	if err := s.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatalf("restore of a parent-written checkpoint: %v", err)
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := s.Residual(); !reflect.DeepEqual(got, want.Residual) {
		t.Fatalf("residuals %v, want %v", got, want.Residual)
	}
	if got := s.Snapshot().Tenants; got != len(want.Leases) {
		t.Fatalf("%d leases restored, want %d", got, len(want.Leases))
	}
	for _, wl := range want.Leases {
		got, err := s.Lookup(wl.ID)
		if err != nil {
			t.Fatalf("lease %d: %v", wl.ID, err)
		}
		if len(wl.Blue) == 0 {
			wl.Blue, got.Blue = nil, nil // JSON null vs empty slice
		}
		if !reflect.DeepEqual(got, wl) {
			t.Fatalf("lease %d:\n  got  %+v\n  want %+v", wl.ID, got, wl)
		}
	}
}

// ckptStream hand-builds a well-formed checkpoint of one tenant over tr
// (uniform capacity 2, correct ledger, correct checksum), so that what a
// test puts in the tenant frame is the only thing Restore can object to.
func ckptStream(t *testing.T, tr *topology.Tree, tf *wire.CkptTenant) []byte {
	t.Helper()
	n := tr.N()
	led := &wire.CkptLedger{Initial: make([]int32, n), Residual: make([]int32, n)}
	for v := range led.Initial {
		led.Initial[v], led.Residual[v] = 2, 2
	}
	for _, v := range tf.Blue {
		led.Residual[v]--
	}
	var buf bytes.Buffer
	h := fnv.New64a()
	w := io.MultiWriter(&buf, h)
	for _, m := range []wire.Message{
		&wire.CkptHeader{Version: wire.CkptVersion, Switches: uint32(n), Tenants: 1, NextID: tf.ID + 1, TreeSum: tr.Fingerprint()},
		led,
		tf,
	} {
		if err := wire.Write(w, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.Write(&buf, &wire.CkptFooter{Tenants: 1, Sum: h.Sum64()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRejectsNonCanonicalLoadPairs: the pairs of a checkpoint
// are stored as they come, so the canonical-pair rule is enforced at the
// door — reason "ids", nothing installed. Every stream here carries a
// valid checksum: it is the frame check that fires, not the footer.
func TestRestoreRejectsNonCanonicalLoadPairs(t *testing.T) {
	tr := topology.MustBT(16)
	n := uint32(tr.N())
	tenant := func(v, c []uint32) *wire.CkptTenant {
		return &wire.CkptTenant{ID: 3, K: 2, Blue: []uint32{1, 4}, LoadV: v, LoadN: c}
	}
	for _, tc := range []struct {
		name string
		v, c []uint32
		want string // "" = canonical, must restore
	}{
		{"canonical", []uint32{7, 9, n - 1}, []uint32{1, math.MaxInt32, 5}, ""},
		{"no load", nil, nil, ""},
		{"switch out of range", []uint32{7, n}, []uint32{1, 1}, "load switch 15 of 15"},
		{"duplicate switch", []uint32{7, 7}, []uint32{1, 2}, "strictly ascending"},
		{"descending switches", []uint32{9, 7}, []uint32{1, 2}, "strictly ascending"},
		{"zero count", []uint32{7, 9}, []uint32{1, 0}, "load count 0"},
		{"count overflows int32", []uint32{7}, []uint32{math.MaxInt32 + 1}, "load count 2147483648"},
	} {
		s := New(tr, Config{Capacity: 2, Workers: 1})
		err := s.Restore(bytes.NewReader(ckptStream(t, tr, tenant(tc.v, tc.c))))
		switch {
		case tc.want == "":
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if err := s.Audit(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		case err == nil || !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: restore = %v, want an error naming %q", tc.name, err, tc.want)
		default:
			if got := s.met.ckptReject["ids"].Value(); got != 1 {
				t.Errorf("%s: reason=ids counter %d, want 1", tc.name, got)
			}
			if got := s.Snapshot().Tenants; got != 0 {
				t.Errorf("%s: rejected restore installed %d tenants", tc.name, got)
			}
		}
		s.Close()
	}
}
