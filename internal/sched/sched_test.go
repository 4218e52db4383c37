package sched

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/obs"
	"soar/internal/paper"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// seqBaseline replicates the pre-scheduler serving path: one mutex-free
// sequential loop running a from-scratch core.Solve per arrival against
// the residual capacities — the Sec. 5.2 online model verbatim. The
// scheduler must be observably identical to it for single-threaded
// request orders.
type seqBaseline struct {
	t        *topology.Tree
	residual []int
	leases   map[int64][]int
	nextID   int64
}

func newSeqBaseline(t *topology.Tree, capacity int) *seqBaseline {
	b := &seqBaseline{t: t, residual: make([]int, t.N()), leases: make(map[int64][]int)}
	for v := range b.residual {
		b.residual[v] = capacity
	}
	return b
}

func (b *seqBaseline) place(loads []int, k int) *Lease {
	avail := make([]bool, b.t.N())
	for v, c := range b.residual {
		avail[v] = c > 0
	}
	res := core.Solve(b.t, loads, avail, k)
	lease := &Lease{
		ID:     b.nextID,
		K:      k,
		Phi:    res.Cost,
		AllRed: reduce.Utilization(b.t, loads, make([]bool, b.t.N())),
		Load:   append([]int(nil), loads...),
	}
	b.nextID++
	for v, blue := range res.Blue {
		if blue {
			b.residual[v]--
			lease.Blue = append(lease.Blue, v)
		}
	}
	b.leases[lease.ID] = lease.Blue
	return lease
}

func (b *seqBaseline) release(id int64) bool {
	blue, ok := b.leases[id]
	if !ok {
		return false
	}
	for _, v := range blue {
		b.residual[v]++
	}
	delete(b.leases, id)
	return true
}

// TestSchedulerMatchesSequential is the equivalence acceptance test:
// for an identical single-threaded order of Place/Release requests, the
// scheduler issues leases identical (ids, switches, φ, all-red) to the
// sequential from-scratch baseline, and ends in the same residual
// state.
func TestSchedulerMatchesSequential(t *testing.T) {
	runSequentialEquivalence(t, 0)
}

// TestSchedulerMatchesSequentialAcrossRepack interleaves re-packing
// rounds with the same request order. A round feeds the solver from the
// dispatcher's dense scratch vector, so after every round — migrating or
// not — that vector must be all-zero again, every lease's φ must be the
// utilization of its own load under its own blues, and admissions must
// go on matching the from-scratch model on the migrated residuals.
func TestSchedulerMatchesSequentialAcrossRepack(t *testing.T) {
	runSequentialEquivalence(t, 7)
}

// observeRepack makes the baseline see a re-packing round the way an
// operator would — by looking the leases up — and checks each record
// the round may have touched against first principles.
func (b *seqBaseline) observeRepack(t *testing.T, s *Scheduler, live []int64) {
	t.Helper()
	for _, id := range live {
		for _, v := range b.leases[id] {
			b.residual[v]++
		}
		l, err := s.Lookup(id)
		if err != nil {
			t.Fatalf("lease %d lost in a re-packing round: %v", id, err)
		}
		blue := make([]bool, b.t.N())
		for _, v := range l.Blue {
			blue[v] = true
			b.residual[v]--
		}
		b.leases[id] = l.Blue
		if phi := reduce.Utilization(b.t, l.Load, blue); phi != l.Phi {
			t.Fatalf("lease %d: φ=%v, its load under its blues costs %v", id, l.Phi, phi)
		}
	}
}

// runSequentialEquivalence drives scheduler and baseline through one
// request order; repackEvery > 0 also runs a re-packing round every
// that many steps. A quarter of the tenants are dense (every rack
// loaded), so the dispatcher's solves split across the idle pool: a
// lone dense placement, and a re-pack candidate when rounds run. Every
// 25 steps a burst of dense placements queues up behind one parked in
// the commit fence and commits as one batch, so an optimistic solve
// loses a capacity race and is re-solved, split, at commit. The split
// solves of each kind are counted and required.
func runSequentialEquivalence(t *testing.T, repackEvery int) {
	if runtime.GOMAXPROCS(0) < 2 {
		// A split needs two lanes, which GOMAXPROCS bounds.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	tr := topology.MustBT(128)
	var armed atomic.Bool
	parked, resume := make(chan struct{}), make(chan struct{})
	s := New(tr, Config{Capacity: 2, Workers: 3, Fence: func() error {
		if armed.CompareAndSwap(true, false) {
			parked <- struct{}{}
			<-resume
		}
		return nil
	}})
	base := newSeqBaseline(tr, 2)
	rng := rand.New(rand.NewSource(42))
	var live []int64
	tenant := func() ([]int, int) {
		k := []int{2, 4, 8}[rng.Intn(3)]
		if rng.Intn(4) == 0 {
			return load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng), k
		}
		return load.GenerateSparse(tr, load.PaperPowerLaw(), 4+rng.Intn(8), rng), k
	}
	check := func(step int, got, want *Lease) {
		t.Helper()
		if got.ID != want.ID || got.K != want.K || got.Phi != want.Phi || got.AllRed != want.AllRed {
			t.Fatalf("step %d: lease %+v, want %+v", step, got, want)
		}
		if !reflect.DeepEqual(got.Blue, want.Blue) {
			t.Fatalf("step %d: blue %v, want %v", step, got.Blue, want.Blue)
		}
		if !reflect.DeepEqual(got.Load, want.Load) {
			t.Fatalf("step %d: lease load mismatch", step)
		}
	}

	rounds, migrating := 0, 0
	loneSplits, repackSplits, conflictSplits := 0, 0, 0
	for step := 0; step < 160; step++ {
		if repackEvery > 0 && step%repackEvery == repackEvery-1 {
			before := s.met.splits.Value()
			moved, _, err := s.RepackNow(2)
			if err != nil {
				t.Fatalf("step %d: repack: %v", step, err)
			}
			repackSplits += int(s.met.splits.Value() - before)
			assertScratchZero(t, s)
			base.observeRepack(t, s, live)
			rounds++
			if moved > 0 {
				migrating++
			}
		}
		if step%25 == 24 {
			leases := placeBurst(t, s, tr, rng, &armed, parked, resume, &conflictSplits)
			for _, got := range leases {
				check(step, got, base.place(got.Load, got.K))
				live = append(live, got.ID)
			}
			continue
		}
		if len(live) > 0 && rng.Intn(5) < 2 {
			id := live[rng.Intn(len(live))]
			gotErr := s.Release(id)
			if ok := base.release(id); ok != (gotErr == nil) {
				t.Fatalf("step %d: release(%d) scheduler err=%v baseline ok=%v", step, id, gotErr, ok)
			}
			for i, l := range live {
				if l == id {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			continue
		}
		loads, k := tenant()
		before := s.met.splits.Value()
		got, err := s.Place(loads, k)
		if err != nil {
			t.Fatalf("step %d: place: %v", step, err)
		}
		loneSplits += int(s.met.splits.Value() - before)
		check(step, got, base.place(loads, k))
		live = append(live, got.ID)
	}
	if repackEvery > 0 && (migrating == 0 || migrating == rounds) {
		t.Fatalf("%d of %d rounds migrated; the test needs rounds of both kinds", migrating, rounds)
	}
	if loneSplits == 0 || conflictSplits == 0 || repackEvery > 0 && repackSplits == 0 {
		t.Fatalf("split solves: %d lone, %d conflict re-solves, %d re-pack candidates; the test needs each kind it drives",
			loneSplits, conflictSplits, repackSplits)
	}
	if got := s.Residual(); !reflect.DeepEqual(got, base.residual) {
		t.Fatalf("final residuals diverge")
	}
	st := s.Snapshot()
	if st.Tenants != len(base.leases) {
		t.Fatalf("%d tenants, want %d", st.Tenants, len(base.leases))
	}
	s.Close()
}

// placeBurst admits one dense tenant whose commit parks in the fence,
// queues three more behind it, and releases the fence, so the three
// commit as one batch. It returns all four leases in commit (id) order
// and adds to *conflictSplits the split solves of that batch: its
// placements fan out to the workers, which never split, so each one is
// a conflict re-solve on the dispatcher's engine.
func placeBurst(t *testing.T, s *Scheduler, tr *topology.Tree, rng *rand.Rand, armed *atomic.Bool, parked, resume chan struct{}, conflictSplits *int) []*Lease {
	t.Helper()
	const burst = 3
	leases := make([]*Lease, 1+burst)
	var wg sync.WaitGroup
	place := func(i int, loads []int) {
		defer wg.Done()
		l, err := s.Place(loads, 8)
		if err != nil {
			t.Error(err)
			return
		}
		leases[i] = l
	}
	armed.Store(true)
	wg.Add(1)
	go place(0, load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng))
	<-parked
	before := s.met.splits.Value()
	wg.Add(burst)
	for i := 1; i <= burst; i++ {
		go place(i, load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng))
	}
	for len(s.reqs) < burst {
		runtime.Gosched()
	}
	resume <- struct{}{}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	*conflictSplits += int(s.met.splits.Value() - before)
	sort.Slice(leases, func(i, j int) bool { return leases[i].ID < leases[j].ID })
	return leases
}

// TestBatchesFormDuringPreviousCommit pins the work-conserving batching
// contract without a clock: the dispatcher is parked in the fence of one
// commit, N more requests queue up behind it, and once it is released
// the very next batch must hold all N — no timer, no idling — with
// every lease still the sequential model's, in commit order.
func TestBatchesFormDuringPreviousCommit(t *testing.T) {
	const n = 24
	tr := topology.MustBT(128)
	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	s := New(tr, Config{Capacity: 2, Workers: 3, Fence: func() error {
		once.Do(func() {
			close(parked)
			<-resume
		})
		return nil
	}})
	defer s.Close()

	leases := make([]*Lease, 1+n)
	var wg sync.WaitGroup
	place := func(i int) {
		defer wg.Done()
		loads := load.GenerateSparse(tr, load.PaperPowerLaw(), 4+i%8, rand.New(rand.NewSource(int64(i))))
		l, err := s.Place(loads, []int{2, 4, 8}[i%3])
		if err != nil {
			t.Error(err)
			return
		}
		leases[i] = l
	}
	wg.Add(1)
	go place(0)
	<-parked
	wg.Add(n)
	for i := 1; i <= n; i++ {
		go place(i)
	}
	for len(s.reqs) < n {
		runtime.Gosched()
	}
	close(resume)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if got := s.met.batches.Value(); got != 2 {
		t.Fatalf("%d batches, want 2 (the parked one and one holding everything queued behind it)", got)
	}
	if got := s.met.batchSize.Sum(); got != 1+n {
		t.Fatalf("soar_sched_batch_size sums to %v requests, want %d", got, 1+n)
	}
	if got := s.met.batchMax.Value(); got != n {
		t.Fatalf("largest batch %v, want %d", got, n)
	}
	if got := s.met.queueWait.Count(); got != 1+n {
		t.Fatalf("soar_sched_queue_wait_seconds observed %d requests, want %d", got, 1+n)
	}

	// Commit order is queue order, which the ids record.
	sort.Slice(leases, func(i, j int) bool { return leases[i].ID < leases[j].ID })
	base := newSeqBaseline(tr, 2)
	for i, got := range leases {
		want := base.place(got.Load, got.K)
		if got.ID != want.ID || got.Phi != want.Phi || got.AllRed != want.AllRed || !reflect.DeepEqual(got.Blue, want.Blue) {
			t.Fatalf("commit %d: lease %+v, want %+v", i, got, want)
		}
	}
	if got := s.Residual(); !reflect.DeepEqual(got, base.residual) {
		t.Fatal("final residuals diverge from the sequential model")
	}
}

// TestConcurrentPlaceRelease hammers the scheduler from many goroutines
// and then audits the ledger: residuals never negative, and the slots
// in use equal exactly the switches held by live leases.
func TestConcurrentPlaceRelease(t *testing.T) {
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 2, Workers: 4})
	defer s.Close()

	const goroutines = 8
	var mu sync.Mutex
	live := make(map[int64][]int)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var lease Lease
			var mine []int64
			for i := 0; i < 25; i++ {
				loads := load.GenerateSparse(tr, load.PaperUniform(), 4, rng)
				if err := s.PlaceInto(loads, 4, &lease); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				live[lease.ID] = append([]int(nil), lease.Blue...)
				mu.Unlock()
				mine = append(mine, lease.ID)
				if rng.Intn(2) == 0 {
					id := mine[rng.Intn(len(mine))]
					mu.Lock()
					_, held := live[id]
					delete(live, id)
					mu.Unlock()
					if held {
						if err := s.Release(id); err != nil {
							t.Errorf("release(%d): %v", id, err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Audit: the re-packer is off, so live leases still hold exactly the
	// switches they were granted.
	used := make([]int, tr.N())
	for id, blue := range live {
		got, err := s.Lookup(id)
		if err != nil {
			t.Fatalf("lookup(%d): %v", id, err)
		}
		if !reflect.DeepEqual(got.Blue, blue) {
			t.Fatalf("lease %d drifted: %v vs %v", id, got.Blue, blue)
		}
		for _, v := range blue {
			used[v]++
		}
	}
	for v, res := range s.Residual() {
		if res < 0 {
			t.Fatalf("switch %d oversubscribed: residual %d", v, res)
		}
		if res != 2-used[v] {
			t.Fatalf("switch %d: residual %d with %d slots held", v, res, used[v])
		}
	}
	st := s.Snapshot()
	if st.Tenants != len(live) {
		t.Fatalf("snapshot has %d tenants, want %d", st.Tenants, len(live))
	}
	if got := s.met.placed.Value(); got != goroutines*25 {
		t.Fatalf("placed %d, want %d", got, goroutines*25)
	}
	batches := s.met.batches.Value()
	if batches == 0 || s.met.batchSize.Sum() < float64(batches) {
		t.Fatalf("batch metrics: %d batches coalescing %v requests", batches, s.met.batchSize.Sum())
	}
	if n, sum := s.met.placeSeconds.Count(), s.met.placeSeconds.Sum(); n != goroutines*25 || sum <= 0 {
		t.Fatalf("place latency histogram: %d observations summing %vs, want %d > 0s", n, sum, goroutines*25)
	}
}

// TestSchedulerBatchSolveInvariants hammers the scheduler from many
// goroutines with mixed budgets — so the batches the worker pool solves
// mix budgets too, pool engines rebuild between placements, and commit
// conflicts re-solve at a budget the dispatcher's engine was not built
// for — and audits the end state: every lease's reported Φ is exactly
// the utilization of its blue set, no lease exceeds its budget, no
// switch is oversubscribed, residuals match the held slots.
func TestSchedulerBatchSolveInvariants(t *testing.T) {
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 2, Workers: 4})
	defer s.Close()

	const goroutines = 8
	var mu sync.Mutex
	live := make(map[int64]*Lease)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var mine []int64
			for i := 0; i < 25; i++ {
				loads := load.GenerateSparse(tr, load.PaperUniform(), 4, rng)
				k := []int{3, 4, 6}[rng.Intn(3)]
				lease, err := s.Place(loads, k)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				live[lease.ID] = lease
				mu.Unlock()
				mine = append(mine, lease.ID)
				if rng.Intn(2) == 0 {
					id := mine[rng.Intn(len(mine))]
					mu.Lock()
					_, held := live[id]
					delete(live, id)
					mu.Unlock()
					if held {
						if err := s.Release(id); err != nil {
							t.Errorf("release(%d): %v", id, err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	used := make([]int, tr.N())
	for id := range live {
		got, err := s.Lookup(id)
		if err != nil {
			t.Fatalf("lookup(%d): %v", id, err)
		}
		blue := make([]bool, tr.N())
		for _, v := range got.Blue {
			blue[v] = true
			used[v]++
		}
		if len(got.Blue) > got.K {
			t.Fatalf("lease %d holds %d switches with budget %d", id, len(got.Blue), got.K)
		}
		if phi := reduce.Utilization(tr, got.Load, blue); phi != got.Phi {
			t.Fatalf("lease %d: reported Φ %v, placement costs %v", id, got.Phi, phi)
		}
	}
	for v, res := range s.Residual() {
		if res < 0 {
			t.Fatalf("switch %d oversubscribed: residual %d", v, res)
		}
		if res != 2-used[v] {
			t.Fatalf("switch %d: residual %d with %d slots held", v, res, used[v])
		}
	}
	if got := s.met.placed.Value(); got != goroutines*25 {
		t.Fatalf("placed %d, want %d", got, goroutines*25)
	}
}

func TestPlaceValidation(t *testing.T) {
	tr, loads := paper.Figure2()
	s := New(tr, Config{Capacity: 1, Workers: 1})
	defer s.Close()
	if _, err := s.Place([]int{1}, 2); err == nil {
		t.Fatal("short load accepted")
	}
	if _, err := s.Place([]int{-1, 0, 0, 0, 0, 0, 0}, 2); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := s.Place(loads, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	if err := s.Release(99); err != ErrNotFound {
		t.Fatalf("release unknown: %v, want ErrNotFound", err)
	}
	if rej, nf := s.rejected.Load(), s.met.notFound.Value(); rej != 3 || nf != 1 {
		t.Fatalf("rejected %d, not found %d; want 3 and 1", rej, nf)
	}
}

func TestPaperExampleLease(t *testing.T) {
	// The scheduler serves the paper's Fig. 2 walkthrough exactly like
	// the sequential model: φ=20 vs all-red 51 with k=2.
	tr, loads := paper.Figure2()
	s := New(tr, Config{Capacity: 1, Workers: 2})
	defer s.Close()
	lease, err := s.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Phi != 20 || lease.AllRed != 51 || len(lease.Blue) != 2 {
		t.Fatalf("lease %+v", lease)
	}
	lease2, err := s.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lease2.Phi <= lease.Phi {
		t.Fatalf("second tenant φ=%v should be worse than %v", lease2.Phi, lease.Phi)
	}
	if err := s.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	lease3, err := s.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lease3.Phi != 20 {
		t.Fatalf("after release φ=%v, want 20", lease3.Phi)
	}
}

// TestLeaseCopies verifies the aliasing contract: leases handed out are
// defensive copies, so caller mutations cannot corrupt scheduler state.
func TestLeaseCopies(t *testing.T) {
	tr, loads := paper.Figure2()
	s := New(tr, Config{Capacity: 2, Workers: 1})
	defer s.Close()
	lease, err := s.Place(loads, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBlue := append([]int(nil), lease.Blue...)
	lease.Blue[0] = -77
	lease.Load[0] = -77

	got, err := s.Lookup(lease.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Blue, wantBlue) {
		t.Fatalf("caller mutation reached scheduler: %v vs %v", got.Blue, wantBlue)
	}
	if !reflect.DeepEqual(got.Load, loads) {
		t.Fatal("caller mutation reached stored load")
	}
	got.Blue[0] = -88
	again, _ := s.Lookup(lease.ID)
	if !reflect.DeepEqual(again.Blue, wantBlue) {
		t.Fatal("lookup result aliases scheduler state")
	}
	res := s.Residual()
	res[0] = -99
	if s.Residual()[0] == -99 {
		t.Fatal("residual slice aliases ledger")
	}
}

func TestCloseUnblocksAndRejects(t *testing.T) {
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 4, Workers: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4; i++ {
				loads := load.GenerateSparse(tr, load.PaperUniform(), 4, rng)
				if _, err := s.Place(loads, 4); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight place failed with %v, want ErrClosed or success", err)
		}
	}
	if _, err := s.Place(make([]int, tr.N()), 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("place after close: %v, want ErrClosed", err)
	}
	if err := s.Release(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("release after close: %v, want ErrClosed", err)
	}
	if _, _, err := s.RepackNow(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("repack after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestMixedBudgetsRebuildEngines(t *testing.T) {
	// Budgets size the DP tables, so engines rebuild on k changes; the
	// results must stay identical to from-scratch solves regardless.
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 3, Workers: 2})
	defer s.Close()
	base := newSeqBaseline(tr, 3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 24; i++ {
		loads := load.GenerateSparse(tr, load.PaperUniform(), 6, rng)
		k := 1 + rng.Intn(9)
		got, err := s.Place(loads, k)
		if err != nil {
			t.Fatal(err)
		}
		want := base.place(loads, k)
		if got.Phi != want.Phi || !reflect.DeepEqual(got.Blue, want.Blue) {
			t.Fatalf("step %d (k=%d): lease diverged", i, k)
		}
	}
}

// TestSolveSpanReportsRecomputedSwitches pins what the sched.solve span
// says about a solve's cost: v1 is the budget, v2 the number of switches
// whose tables the engine recomputed — every switch when the engine is
// built or re-pointed at a dense tenant, the union of the changed racks'
// root paths between two sparse tenants.
func TestSolveSpanReportsRecomputedSwitches(t *testing.T) {
	tr := topology.MustBT(64)
	s := New(tr, Config{Capacity: 8, Workers: 1})
	defer s.Close()
	leaves := tr.Leaves()
	sparse := func(racks ...int) []int {
		loads := make([]int, tr.N())
		for _, r := range racks {
			loads[leaves[r]] = 3
		}
		return loads
	}
	dense := make([]int, tr.N())
	for _, v := range leaves {
		dense[v] = 2
	}
	onPaths := map[int]bool{}
	for _, r := range []int{5, 9} { // racks that differ between the two sparse tenants
		for v := leaves[r]; ; v = tr.Parent(v) {
			onPaths[v] = true
			if v == tr.Root() {
				break
			}
		}
	}
	for _, step := range []struct {
		name  string
		loads []int
		want  int
	}{
		{"engine built", sparse(1, 5), tr.N()},
		{"sparse to sparse", sparse(1, 9), len(onPaths)},
		{"sparse to dense", dense, tr.N()},
	} {
		if _, err := s.Place(step.loads, 4); err != nil {
			t.Fatal(err)
		}
		var got *obs.SpanEvent
		for _, sp := range s.Trace().Dump(16) { // newest first
			if sp.Op == "sched.solve" {
				got = &sp
				break
			}
		}
		if got == nil || got.V1 != 4 || got.V2 != int64(step.want) {
			t.Fatalf("%s: newest sched.solve span %+v, want v1=4 v2=%d", step.name, got, step.want)
		}
	}
}

func TestLedgerInvariants(t *testing.T) {
	l := NewLedger(3, 2)
	l.Charge(1)
	l.Charge(1)
	if l.Avail()[1] {
		t.Fatal("exhausted switch still available")
	}
	if l.Residual(1) != 0 || l.Used(1) != 2 {
		t.Fatalf("residual %d used %d", l.Residual(1), l.Used(1))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("charge on exhausted switch must panic")
			}
		}()
		l.Charge(1)
	}()
	l.Credit(1)
	if !l.Avail()[1] {
		t.Fatal("credited switch unavailable")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("credit on full switch must panic")
			}
		}()
		l.Credit(0)
	}()
	l.SetCapacity(2, 0)
	if l.Avail()[2] {
		t.Fatal("zero-capacity switch available")
	}
	cp := l.AvailCopy()
	cp[0] = false
	if !l.Avail()[0] {
		t.Fatal("AvailCopy aliases ledger")
	}
}
