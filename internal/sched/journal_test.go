package sched

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"soar/internal/load"
	"soar/internal/topology"
	"soar/internal/wire"
)

// journalRecorder collects the hook's records; the hook runs on the
// dispatcher goroutine, so reads take the lock.
type journalRecorder struct {
	mu   sync.Mutex
	recs []*wire.LeaseDelta
}

func (j *journalRecorder) record(d *wire.LeaseDelta) {
	j.mu.Lock()
	j.recs = append(j.recs, d)
	j.mu.Unlock()
}

func (j *journalRecorder) records() []*wire.LeaseDelta {
	j.mu.Lock()
	defer j.mu.Unlock()
	return slices.Clone(j.recs)
}

// assertReplicaEqual proves a replica's table holds the primary's
// durable state: same sequence and residuals, and every lease equal
// field-for-field.
func assertReplicaEqual(t *testing.T, primary *Scheduler, replica *Table, ids map[int64]bool) {
	t.Helper()
	if got, want := replica.Seq(), primary.JournalSeq(); got != want {
		t.Fatalf("replica at seq %d, primary at %d", got, want)
	}
	pr, rr := primary.Residual(), replica.Residual()
	for v := range pr {
		if pr[v] != rr[v] {
			t.Fatalf("switch %d: primary residual %d, replica %d", v, pr[v], rr[v])
		}
	}
	for id := range ids {
		pl, perr := primary.Lookup(id)
		rl, rerr := replica.Lookup(id)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("tenant %d: primary err %v, replica err %v", id, perr, rerr)
		}
		if perr != nil {
			continue
		}
		if pl.K != rl.K || pl.Phi != rl.Phi || pl.AllRed != rl.AllRed {
			t.Fatalf("tenant %d: primary %+v, replica %+v", id, pl, rl)
		}
		if len(pl.Blue) != len(rl.Blue) {
			t.Fatalf("tenant %d: blue sets %v vs %v", id, pl.Blue, rl.Blue)
		}
		for i := range pl.Blue {
			if pl.Blue[i] != rl.Blue[i] {
				t.Fatalf("tenant %d: blue sets %v vs %v", id, pl.Blue, rl.Blue)
			}
		}
	}
	if err := replica.Audit(); err != nil {
		t.Fatalf("replica audit: %v", err)
	}
}

// TestJournalReplayReconstructs replays a full journal — places,
// releases, and re-packer migrations — into a fresh table and proves
// the replica is lease-for-lease identical to the primary.
func TestJournalReplayReconstructs(t *testing.T) {
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(7))
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)

	var rec journalRecorder
	primary := New(tr, Config{Capacity: 1, Workers: 2, Journal: rec.record})
	defer primary.Close()

	ids := map[int64]bool{}
	live := fragment(t, primary, tr, loads, 8)
	for _, id := range live {
		ids[id] = true
	}
	if moved, _, err := primary.RepackNow(len(live)); err != nil || moved == 0 {
		t.Fatalf("repack moved %d (%v); the journal needs a migrate event", moved, err)
	}

	recs := rec.records()
	ops := map[uint8]int{}
	for i, d := range recs {
		if d.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, d.Seq)
		}
		ops[d.Op]++
	}
	if ops[wire.DeltaPlace] != 8 || ops[wire.DeltaRelease] != 4 || ops[wire.DeltaMigrate] == 0 {
		t.Fatalf("journal ops %v, want 8 places, 4 releases, ≥1 migrate", ops)
	}

	replica := newTable(tr, NewLedger(tr.N(), 1))
	for _, d := range recs {
		if err := replica.Apply(d); err != nil {
			t.Fatalf("apply %+v: %v", d, err)
		}
	}
	assertReplicaEqual(t, primary, replica, ids)
}

// TestCheckpointSeqAndDeltaReplay is the standby catch-up contract: a
// checkpoint taken mid-stream plus the journal suffix (records with
// Seq > the checkpoint's sequence) reconstructs the primary exactly.
func TestCheckpointSeqAndDeltaReplay(t *testing.T) {
	tr := topology.MustBT(32)
	rng := rand.New(rand.NewSource(11))
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)

	var rec journalRecorder
	primary := New(tr, Config{Capacity: 2, Workers: 2, Journal: rec.record})
	defer primary.Close()

	ids := map[int64]bool{}
	for i := 0; i < 5; i++ {
		lease, err := primary.Place(loads, 2)
		if err != nil {
			t.Fatal(err)
		}
		ids[lease.ID] = true
	}
	var ckpt bytes.Buffer
	seq, err := primary.CheckpointSeq(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("checkpoint at seq %d, want 5", seq)
	}
	// Post-snapshot traffic: two more places, one release.
	for i := 0; i < 2; i++ {
		lease, err := primary.Place(loads, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids[lease.ID] = true
	}
	for id := range ids {
		if err := primary.Release(id); err != nil {
			t.Fatal(err)
		}
		break
	}

	replica, err := RestoreTable(tr, &ckpt, seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rec.records() {
		if d.Seq <= seq {
			continue // folded into the checkpoint already
		}
		if err := replica.Apply(d); err != nil {
			t.Fatalf("apply %+v: %v", d, err)
		}
	}
	assertReplicaEqual(t, primary, replica, ids)
}

// TestFenceRejectsMutations proves a tripped fence aborts every kind of
// commit, leaving state untouched.
func TestFenceRejectsMutations(t *testing.T) {
	tr := topology.MustBT(16)
	rng := rand.New(rand.NewSource(3))
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)

	errFenced := errors.New("fenced for test")
	var fenced sync.Mutex
	tripped := false
	s := New(tr, Config{Capacity: 1, Workers: 1, Fence: func() error {
		fenced.Lock()
		defer fenced.Unlock()
		if tripped {
			return errFenced
		}
		return nil
	}})
	defer s.Close()

	lease, err := s.Place(loads, 2)
	if err != nil {
		t.Fatalf("pre-fence place: %v", err)
	}
	before := s.Residual()

	fenced.Lock()
	tripped = true
	fenced.Unlock()

	if _, err := s.Place(loads, 2); !errors.Is(err, errFenced) {
		t.Fatalf("fenced place: %v, want fence error", err)
	}
	if err := s.Release(lease.ID); !errors.Is(err, errFenced) {
		t.Fatalf("fenced release: %v, want fence error", err)
	}
	if moved, _, err := s.RepackNow(4); err != nil || moved != 0 {
		t.Fatalf("fenced repack moved %d (%v), want 0", moved, err)
	}
	assertScratchZero(t, s) // the fenced round solved one candidate before it ended
	after := s.Residual()
	for v := range before {
		if before[v] != after[v] {
			t.Fatalf("switch %d: residual changed %d → %d under fence", v, before[v], after[v])
		}
	}
	if _, err := s.Lookup(lease.ID); err != nil {
		t.Fatalf("fenced scheduler lost lease %d: %v", lease.ID, err)
	}
}

// TestRestoreRejectCounters proves every rejection class lands in its
// labeled soar_ckpt_restore_reject_total series.
func TestRestoreRejectCounters(t *testing.T) {
	tr := topology.MustBT(16)
	rng := rand.New(rand.NewSource(5))
	loads := load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)

	src := New(tr, Config{Capacity: 2, Workers: 1})
	defer src.Close()
	if _, err := src.Place(loads, 2); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := src.Checkpoint(&good); err != nil {
		t.Fatal(err)
	}

	reject := func(name, reason string, corrupt func() []byte) {
		t.Helper()
		s := New(tr, Config{Capacity: 2, Workers: 1})
		defer s.Close()
		before := s.met.ckptReject[reason].Value()
		attempts := s.met.ckptRestoreAttempts.Value()
		if err := s.Restore(bytes.NewReader(corrupt())); err == nil {
			t.Fatalf("%s: restored, want rejection", name)
		}
		if got := s.met.ckptReject[reason].Value(); got != before+1 {
			t.Fatalf("%s: reason=%q counter %d, want %d", name, reason, got, before+1)
		}
		if got := s.met.ckptRestoreAttempts.Value(); got != attempts+1 {
			t.Fatalf("%s: attempts %d, want %d", name, got, attempts+1)
		}
	}

	reject("truncated stream", "frame", func() []byte {
		return good.Bytes()[:10]
	})
	reject("flipped byte", "checksum", func() []byte {
		b := append([]byte(nil), good.Bytes()...)
		b[len(b)/2] ^= 0x40
		return b
	})
	reject("empty stream", "frame", func() []byte { return nil })

	// Wrong fingerprint: a checkpoint from a different topology.
	other := New(topology.MustBT(32), Config{Capacity: 2, Workers: 1})
	defer other.Close()
	var wrongTopo bytes.Buffer
	if err := other.Checkpoint(&wrongTopo); err != nil {
		t.Fatal(err)
	}
	reject("wrong topology", "topology", wrongTopo.Bytes)

	// Busy: restoring over live leases.
	busy := New(tr, Config{Capacity: 2, Workers: 1})
	defer busy.Close()
	if _, err := busy.Place(loads, 1); err != nil {
		t.Fatal(err)
	}
	before := busy.met.ckptReject["busy"].Value()
	if err := busy.Restore(bytes.NewReader(good.Bytes())); err == nil {
		t.Fatal("restore over live leases accepted")
	}
	if got := busy.met.ckptReject["busy"].Value(); got != before+1 {
		t.Fatalf("busy counter %d, want %d", got, before+1)
	}

	// The families render in the Prometheus exposition.
	var text bytes.Buffer
	if err := busy.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`soar_ckpt_restore_reject_total{reason="busy"} 1`,
		"soar_ckpt_restore_attempts_total 1",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text.String())
		}
	}
}
