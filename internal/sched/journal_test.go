package sched

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"soar/internal/load"
	"soar/internal/topology"
)

// journalRecorder collects the hook's events; the hook runs on the
// dispatcher goroutine, so reads take the lock.
type journalRecorder struct {
	mu  sync.Mutex
	evs []JournalEvent
}

func (j *journalRecorder) record(ev JournalEvent) {
	j.mu.Lock()
	j.evs = append(j.evs, ev)
	j.mu.Unlock()
}

func (j *journalRecorder) events() []JournalEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]JournalEvent(nil), j.evs...)
}

// assertReplicaEqual proves two schedulers hold identical durable state:
// same residuals, and every lease equal field-for-field.
func assertReplicaEqual(t *testing.T, primary, replica *Scheduler, ids map[int64]bool) {
	t.Helper()
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
// releases, and re-packer migrations — into a fresh scheduler and
// proves the replica is lease-for-lease identical to the primary.
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

	evs := rec.events()
	ops := map[JournalOp]int{}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		ops[ev.Op]++
	}
	if ops[JournalPlace] != 8 || ops[JournalRelease] != 4 || ops[JournalMigrate] == 0 {
		t.Fatalf("journal ops %v, want 8 places, 4 releases, ≥1 migrate", ops)
	}

	replica := New(tr, Config{Capacity: 1, Workers: 1})
	defer replica.Close()
	for _, ev := range evs {
		if err := replica.ApplyEvent(ev); err != nil {
			t.Fatalf("apply %+v: %v", ev, err)
		}
	}
	if got, want := replica.JournalSeq(), primary.JournalSeq(); got != want {
		t.Fatalf("replica at seq %d, primary at %d", got, want)
	}
	assertReplicaEqual(t, primary, replica, ids)
}

// TestCheckpointSeqAndDeltaReplay is the standby catch-up contract: a
// checkpoint taken mid-stream plus the journal suffix (events with
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

	replica := New(tr, Config{Capacity: 2, Workers: 1})
	defer replica.Close()
	if err := replica.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	replica.SeedJournal(seq)
	for _, ev := range rec.events() {
		if ev.Seq <= seq {
			continue // folded into the checkpoint already
		}
		if err := replica.ApplyEvent(ev); err != nil {
			t.Fatalf("apply %+v: %v", ev, err)
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

// TestApplyEventValidation drives the replay path with the corruption a
// buggy or malicious primary could emit.
func TestApplyEventValidation(t *testing.T) {
	tr := topology.MustBT(8)
	s := New(tr, Config{Capacity: 1, Workers: 1})
	defer s.Close()
	n := tr.N()

	place := func(seq uint64, id int64, blue []int) JournalEvent {
		return JournalEvent{Seq: seq, Op: JournalPlace, ID: id, K: len(blue), Blue: blue}
	}
	loaded := func(v, c []uint32) JournalEvent {
		return JournalEvent{Seq: 2, Op: JournalPlace, ID: 1, Load: SparseLoad{V: v, N: c}}
	}
	if err := s.ApplyEvent(place(2, 0, nil)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("seq gap: %v", err)
	}
	if err := s.ApplyEvent(place(1, 0, []int{0})); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ev   JournalEvent
	}{
		{"duplicate id", place(2, 0, []int{1})},
		{"blue out of range", place(2, 1, []int{n})},
		{"blue twice", place(2, 1, []int{1, 1})},
		{"exhausted switch", place(2, 1, []int{0})},
		{"load switch out of range", loaded([]uint32{uint32(n)}, []uint32{1})},
		{"load switches descending", loaded([]uint32{5, 3}, []uint32{1, 1})},
		{"load switch twice", loaded([]uint32{3, 3}, []uint32{1, 2})},
		{"load count zero", loaded([]uint32{3}, []uint32{0})},
		{"load count overflows int32", loaded([]uint32{3}, []uint32{math.MaxInt32 + 1})},
		{"load pairs unmatched", loaded([]uint32{3, 4}, []uint32{1})},
		{"release unknown", JournalEvent{Seq: 2, Op: JournalRelease, ID: 99}},
		{"migrate unknown", JournalEvent{Seq: 2, Op: JournalMigrate, ID: 99}},
		{"unknown op", JournalEvent{Seq: 2, Op: 77, ID: 0}},
	}
	for _, tc := range cases {
		if err := s.ApplyEvent(tc.ev); err == nil {
			t.Errorf("%s: applied, want error", tc.name)
		}
		if got := s.JournalSeq(); got != 1 {
			t.Fatalf("%s: seq advanced to %d on rejected event", tc.name, got)
		}
		if err := s.Audit(); err != nil {
			t.Fatalf("%s: state corrupted: %v", tc.name, err)
		}
	}
	// A rejected migrate must leave the ledger exactly as it was.
	if err := s.ApplyEvent(JournalEvent{Seq: 2, Op: JournalMigrate, ID: 0, Blue: []int{n + 3}}); err == nil {
		t.Fatal("migrate to out-of-range switch applied")
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("rejected migrate corrupted state: %v", err)
	}
	if err := s.ApplyEvent(JournalEvent{Seq: 2, Op: JournalMigrate, ID: 0, Phi: 1.5, Blue: []int{2}}); err != nil {
		t.Fatalf("valid migrate: %v", err)
	}
	l, err := s.Lookup(0)
	if err != nil || len(l.Blue) != 1 || l.Blue[0] != 2 || l.Phi != 1.5 {
		t.Fatalf("migrated lease %+v (%v)", l, err)
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
