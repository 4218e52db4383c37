// Package sched turns SOAR into a concurrent multi-tenant placement
// service: the serving layer between the paper's Sec. 5.2 online model
// and a NaaS control plane that must absorb many simultaneous request
// streams (the contention regime studied in the follow-up "Constrained
// In-network Computing with Low Congestion in Datacenter Networks").
//
// A Scheduler serves one tree network's lease Table — the per-switch
// lease capacities (a Ledger) and the leases charged against them — and
// admits Place/Release requests from any number of goroutines. Requests
// that queue up while the previous batch is being solved are coalesced
// into the next one (work-conserving group commit: the dispatcher never
// idles to let a batch grow) and dispatched to a pool of reusable
// core.Incremental engines — one per worker, patched with load and
// availability deltas via SetLoads / SetAvails instead of re-solving
// from scratch — so steady-state admission is allocation-free and the
// solves of one batch run in parallel. Commits are serialized in arrival order against the ledger;
// a batch member whose optimistically-solved placement lost a capacity
// race to an earlier member is transparently re-solved against the
// updated availability set, so leases never oversubscribe a switch.
//
// A background re-packer (repack.go) periodically undoes the
// fragmentation that tenant departures leave behind: it re-solves the
// worst-ratio tenants against the freed capacity under a bounded
// migration budget (at most m tenants moved per round) and reports the
// aggregate Φ recovered. Every count and latency the scheduler keeps is
// a family in its obs registry (metrics.go), served as GET /metrics.
//
// Driven single-threaded, the scheduler is observably identical to the
// sequential online model: one request per batch, solved against the
// current residual capacities by an engine whose tables are bitwise
// equal to a from-scratch SOAR-Gather (see TestSchedulerMatchesSequential).
package sched

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"soar/internal/core"
	"soar/internal/topology"
	"soar/internal/wire"
)

// ErrNotFound is returned for operations on unknown tenant ids.
var ErrNotFound = errors.New("sched: no such tenant")

// ErrClosed is returned for requests submitted to a closed scheduler.
var ErrClosed = errors.New("sched: scheduler closed")

// Lease describes one tenant's allocation. Leases returned by Place and
// Lookup are caller-owned copies: mutating them cannot corrupt (or race
// with) the scheduler's internal state, and the re-packer migrating the
// tenant does not mutate them either — re-Lookup to observe migrations.
type Lease struct {
	// ID is the scheduler-assigned tenant identifier.
	ID int64
	// Blue lists the switch ids leased to the tenant for aggregation.
	Blue []int
	// K is the budget the tenant requested.
	K int
	// Phi is the utilization cost of the tenant's Reduce under the lease.
	Phi float64
	// AllRed is the tenant's utilization without any aggregation; the
	// ratio Phi/AllRed is the value delivered.
	AllRed float64
	// Load is the tenant's per-switch server counts (kept for audits).
	Load []int
}

// Ratio returns Phi/AllRed, the tenant's normalized utilization
// (1 means the lease bought nothing; lower is better).
func (l *Lease) Ratio() float64 {
	if l.AllRed == 0 {
		return 1
	}
	return l.Phi / l.AllRed
}

// Stats summarizes the scheduler's state.
type Stats struct {
	// Switches is the network size.
	Switches int
	// Tenants is the number of active leases.
	Tenants int
	// SwitchesInUse counts switches with at least one lease.
	SwitchesInUse int
	// CapacityUsed and CapacityTotal aggregate lease slots.
	CapacityUsed  int64
	CapacityTotal int64
	// MeanRatio is the mean normalized utilization across active leases
	// (1 if there are none).
	MeanRatio float64
}

// RepackConfig tunes the background re-packer.
type RepackConfig struct {
	// Every is the period between re-packing rounds; ≤ 0 disables the
	// background loop (RepackNow still works).
	Every time.Duration
	// MaxMoves is the migration budget m: at most this many tenants are
	// moved per round (default 8). Bounding m keeps the data-plane churn
	// of a round predictable.
	MaxMoves int
}

// Config tunes a Scheduler. The zero value is usable: unlimited
// capacity, one worker per CPU, no batching delay, no background
// re-packing.
type Config struct {
	// Capacity is the uniform per-switch lease capacity (≤ 0 unlimited).
	Capacity int
	// Capacities, when non-nil, is the per-switch lease capacity vector
	// for heterogeneous deployments and overrides Capacity. Entries are
	// literal: 0 makes a switch permanently unavailable (a plain
	// forwarder), negative values clamp to 0. Its length must equal the
	// tree's switch count.
	Capacities []int
	// Workers is the engine-pool size: the number of concurrent SOAR
	// solves (default GOMAXPROCS). Each worker owns one reusable
	// core.Incremental engine. While the pool is idle — a lone
	// placement, a conflict re-solve, a re-pack candidate — the workers
	// also serve the lanes of the dispatcher's dense flushes.
	Workers int
	// Window is ignored.
	//
	// Deprecated: ignored — batches form during the previous solve;
	// delete with the next benchmark PR (bench/layers.go still sets it).
	Window time.Duration
	// QueueDepth bounds the number of buffered requests (default
	// max(64, 4·Workers)); submitters beyond it block.
	QueueDepth int
	// Repack tunes the background re-packer.
	Repack RepackConfig
	// Journal, when non-nil, receives one commit-log record per committed
	// control-plane mutation (place, release, re-packer migration), in
	// commit order with densely increasing sequence numbers: the lease
	// delta frame with Seq, Op and the lease filled in, the receiver's to
	// keep (it stamps Shard and Epoch). It runs on the dispatcher
	// goroutine after the mutation is visible and outside the commit
	// lock; it must hand off quickly — internal/ha fans records out to
	// buffered per-standby streams. See journal.go.
	Journal func(*wire.LeaseDelta)
	// Fence, when non-nil, is consulted under the commit lock before
	// every admission, release and migration commits; a non-nil error
	// aborts the mutation and is returned to the caller. internal/ha
	// installs an epoch check here so a superseded primary's late
	// commits are rejected instead of diverging from the promoted standby.
	Fence func() error
}

type opcode uint8

const (
	opPlace opcode = iota
	opRelease
	opRepack
	opCheckpoint
)

// request is one queued operation. Requests are pooled: the submitting
// goroutine owns the request until it is handed to the queue, the
// dispatcher owns it until the response is signalled on done, and the
// submitter reclaims it afterwards — so a steady-state round trip
// allocates nothing.
type request struct {
	op opcode
	// place inputs: load is borrowed from the caller for the duration of
	// the call (the caller blocks until done), lease is the caller-owned
	// destination commit fills in.
	load  []int
	k     int // place: budget; repack: migration budget override
	lease *Lease
	// release input
	id int64
	// solver outputs
	blue   []bool
	phi    float64
	allRed float64
	// repack outputs
	moved     int
	recovered float64
	// checkpoint output
	snap *Table
	// conflicted marks a placement re-solved during commit; the metric
	// is counted under mu, the detection happens outside it.
	conflicted bool

	err  error
	t0   time.Time
	done chan struct{}
}

// tenant is the scheduler-internal lease record. It never escapes:
// Lookup and Place hand out copies, so the re-packer may mutate blue and
// phi freely. Records are pooled across the place/release lifecycle.
// The load is kept as canonical pairs only (sparse.go): a tenant
// occupies a handful of racks, so the table's footprint follows the
// racks leased, not tenants × switches.
type tenant struct {
	id     int64
	k      int
	phi    float64
	allRed float64
	blue   []int
	load   SparseLoad
}

func (t *tenant) ratio() float64 {
	if t.allRed == 0 {
		return 1
	}
	return t.phi / t.allRed
}

// Scheduler is a concurrent multi-tenant placement service over one
// tree. Construct with New; stop with Close. All exported methods are
// safe for concurrent use.
type Scheduler struct {
	t   *topology.Tree
	cfg Config

	reqs chan *request
	stop chan struct{}
	bg   sync.WaitGroup // dispatcher + workers + re-pack ticker
	// closeMu is write-held only by Close to flip closed. soarlint's
	// lockdiscipline analyzer enforces the discipline declared here: no
	// channel op, Solve* call or blocking pool Get while either critical
	// lock is held, and closeMu is only ever taken before mu.
	//
	//soar:lockorder closeMu mu
	closeMu  sync.RWMutex //soar:critical
	closed   bool
	inflight sync.WaitGroup // submitted requests not yet answered

	reqPool sync.Pool
	tenPool sync.Pool

	// Dispatch state. Touched only by the dispatcher goroutine; workers
	// read places/ledger.avail (or split/splitN) strictly inside the
	// wake→batchWG window, during which the dispatcher is quiescent or
	// flushing lanes of split itself.
	workers   []*worker
	batch     []*request
	places    []*request
	repacks   []*request
	batchNext atomic.Int64
	batchWG   sync.WaitGroup
	bgSol     solver // dispatcher-owned: single solves, conflicts, re-packing
	// crew is how many goroutines run the lanes of a dense bgSol flush:
	// the dispatcher and crew-1 idle workers, no more than GOMAXPROCS
	// in all. split is the engine whose lanes a window serves (nil: the
	// window solves places), splitN its lane count.
	crew   int
	split  *core.Incremental
	splitN int
	bgBlue []bool
	// bgLoad is the re-packer's dense view of one candidate's load: all
	// zero between candidates (repack scatters the pairs in for the
	// engine, which copies them, and clears exactly those entries).
	bgLoad []int

	// tab is the served table: ledger, leases, next id and journal
	// sequence (assigned under mu at each mutation). The dispatcher is
	// its only writer, so the solve pipeline reads the ledger unlocked.
	mu  sync.Mutex //soar:critical guards tab and met
	tab *Table
	met metrics

	// jbuf is the dispatcher-owned buffer of commit-log records flushed
	// to Config.Journal outside the lock (journal.go).
	jbuf []*wire.LeaseDelta

	rejected atomic.Uint64 // requests failing validation (pre-queue)
}

// New creates a scheduler over tree t — a fresh table at the configured
// capacities, served — and starts its dispatcher, worker pool and (if
// configured) re-packer. Callers must Close it.
func New(t *topology.Tree, cfg Config) *Scheduler {
	ledger := NewLedger(t.N(), cfg.Capacity)
	if cfg.Capacities != nil {
		if len(cfg.Capacities) != t.N() {
			panic(fmt.Sprintf("sched: Capacities has %d entries for %d switches", len(cfg.Capacities), t.N()))
		}
		ledger = NewLedgerFromCaps(cfg.Capacities)
	}
	return Serve(newTable(t, ledger), cfg)
}

// Serve starts a scheduler on an existing table — a replica's, restored
// from its primary's checkpoint and kept current by Table.Apply — and
// takes the table over: the caller must not touch it again. The ledger
// served is the table's; cfg's capacity fields are not consulted.
// Callers audit the table first (Table.Audit) and must Close the
// scheduler.
func Serve(tab *Table, cfg Config) *Scheduler {
	t := tab.t
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = max(64, 4*cfg.Workers)
	}
	if cfg.Repack.MaxMoves <= 0 {
		cfg.Repack.MaxMoves = 8
	}
	s := &Scheduler{
		t:      t,
		cfg:    cfg,
		reqs:   make(chan *request, cfg.QueueDepth),
		stop:   make(chan struct{}),
		tab:    tab,
		bgBlue: make([]bool, t.N()),
		bgLoad: make([]int, t.N()),
		crew:   min(cfg.Workers+1, runtime.GOMAXPROCS(0)),
	}
	s.reqPool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	s.tenPool.New = func() any { return new(tenant) }
	s.workers = make([]*worker, cfg.Workers)
	for i := range s.workers {
		s.workers[i] = &worker{s: s, wake: make(chan struct{}, 1)}
	}
	s.initMetrics()
	s.bg.Add(1 + len(s.workers))
	go s.dispatch()
	for _, w := range s.workers {
		go w.loop()
	}
	if cfg.Repack.Every > 0 {
		s.bg.Add(1)
		go s.repackTicker()
	}
	return s
}

// Close stops the scheduler: in-flight and queued requests are answered
// (with ErrClosed if they had not been admitted yet), background
// goroutines exit, and subsequent requests fail with ErrClosed. Close is
// idempotent and safe to call concurrently with Place/Release.
func (s *Scheduler) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	close(s.stop)
	s.bg.Wait()
}

// submit enqueues r unless the scheduler is closed. On success the
// caller must wait on r.done and then call finish.
//
// The queue send happens after closeMu is released: a submitter stuck
// on a full queue must not block Close (soarlint's lockdiscipline
// analyzer rejects channel ops under a critical lock). The inflight
// count — taken before the lock is dropped — is what keeps the late
// send safe: drainAndFail closes reqs only once every in-flight
// request has been answered and reclaimed.
//
//soar:hotpath
func (s *Scheduler) submit(r *request) error {
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	s.inflight.Add(1)
	s.closeMu.RUnlock()
	s.reqs <- r
	return nil
}

// finish reclaims an answered request.
//
//soar:hotpath
func (s *Scheduler) finish(r *request) {
	r.load = nil
	r.lease = nil
	r.err = nil
	s.reqPool.Put(r)
	s.inflight.Done()
}

// PlaceInto admits one tenant, filling the caller-owned lease in place
// (its Blue and Load slices are reused if they have capacity, which is
// what makes steady-state admission allocation-free). load is borrowed
// for the duration of the call and not retained. It returns ErrClosed
// after Close, or a validation error for malformed input.
//
//soar:hotpath
func (s *Scheduler) PlaceInto(load []int, k int, lease *Lease) error {
	if lease == nil {
		panic("sched: PlaceInto with nil lease")
	}
	if len(load) != s.t.N() { //soar:coldpath rejected input
		s.rejected.Add(1)
		return fmt.Errorf("sched: load has %d entries for %d switches", len(load), s.t.N())
	}
	for v, l := range load {
		if l < 0 || l > math.MaxInt32 { //soar:coldpath rejected input
			s.rejected.Add(1)
			return fmt.Errorf("sched: load %d at switch %d outside 0..%d", l, v, math.MaxInt32)
		}
	}
	if k < 0 { //soar:coldpath rejected input
		s.rejected.Add(1)
		return fmt.Errorf("sched: negative budget %d", k)
	}
	r := s.reqPool.Get().(*request)
	r.op, r.load, r.k, r.lease, r.t0 = opPlace, load, k, lease, time.Now()
	if err := s.submit(r); err != nil {
		s.reqPool.Put(r)
		return err
	}
	<-r.done
	err := r.err
	s.finish(r)
	return err
}

// Place admits one tenant and returns its lease.
func (s *Scheduler) Place(load []int, k int) (*Lease, error) {
	lease := new(Lease)
	if err := s.PlaceInto(load, k, lease); err != nil {
		return nil, err
	}
	return lease, nil
}

// Release ends a tenant's lease and reclaims its switches.
//
//soar:hotpath
func (s *Scheduler) Release(id int64) error {
	r := s.reqPool.Get().(*request)
	r.op, r.id, r.t0 = opRelease, id, time.Now()
	if err := s.submit(r); err != nil {
		s.reqPool.Put(r)
		return err
	}
	<-r.done
	err := r.err
	s.finish(r)
	return err
}

// RepackNow runs one synchronous re-packing round with the given
// migration budget (≤ 0 uses the configured MaxMoves) and returns the
// number of tenants moved and the aggregate Φ recovered.
func (s *Scheduler) RepackNow(maxMoves int) (moved int, recovered float64, err error) {
	r := s.reqPool.Get().(*request)
	r.op, r.k, r.t0 = opRepack, maxMoves, time.Now()
	if err := s.submit(r); err != nil {
		s.reqPool.Put(r)
		return 0, 0, err
	}
	<-r.done
	moved, recovered, err = r.moved, r.recovered, r.err
	s.finish(r)
	return moved, recovered, err
}

// Lookup returns a copy of a lease. The copy reflects the tenant's
// current placement (the re-packer may have migrated it since Place).
func (s *Scheduler) Lookup(id int64) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Lookup(id)
}

// Residual returns a copy of the per-switch residual capacities.
func (s *Scheduler) Residual() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tab.Residual()
}

// Snapshot returns current scheduler statistics.
func (s *Scheduler) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ledger, leases := s.tab.ledger, s.tab.leases
	st := Stats{Switches: s.t.N(), Tenants: len(leases)}
	for v := 0; v < ledger.N(); v++ {
		used := ledger.Used(v)
		if used > 0 {
			st.SwitchesInUse++
		}
		st.CapacityUsed += int64(used)
		st.CapacityTotal += int64(ledger.Initial(v))
	}
	if len(leases) == 0 {
		st.MeanRatio = 1
		return st
	}
	sum := 0.0
	for _, ten := range leases {
		sum += ten.ratio()
	}
	st.MeanRatio = sum / float64(len(leases))
	return st
}

// --- dispatcher -------------------------------------------------------

// dispatch is the scheduler's serialization point: it owns batch
// formation, commit order and all ledger/lease mutation (the re-packer
// included), so the solve fan-out is the only concurrent part of the
// pipeline.
func (s *Scheduler) dispatch() {
	defer s.bg.Done()
	defer func() {
		for _, w := range s.workers {
			close(w.wake)
		}
	}()
	for {
		select {
		case <-s.stop:
			s.drainAndFail()
			return
		case r := <-s.reqs:
			s.collectBatch(r)
			s.runBatch()
		}
	}
}

// collectBatch forms one batch: the first request plus everything
// already queued. It never waits: requests that arrive while this batch
// is being solved form the next one, so batches grow with load and a
// lone request is solved at once.
func (s *Scheduler) collectBatch(first *request) {
	s.batch = append(s.batch[:0], first)
	for {
		select {
		case r := <-s.reqs:
			s.batch = append(s.batch, r)
		default:
			return
		}
	}
}

// runBatch executes one batch: releases first in arrival order, then
// re-pack rounds (so they see every freed slot), then checkpoint
// snapshots (between rounds, never inside one — a round credits a
// candidate's slots while it re-solves it), then all placements solved
// in parallel against the resulting availability snapshot and committed
// in arrival order.
//
//soar:hotpath
func (s *Scheduler) runBatch() {
	t0 := time.Now()
	s.places = s.places[:0]
	s.repacks = s.repacks[:0]
	s.mu.Lock()
	for _, r := range s.batch {
		s.met.queueWait.Observe(t0.Sub(r.t0).Seconds())
		switch r.op {
		case opRelease:
			r.err = s.releaseLocked(r.id)
			s.met.noteRelease(r.err == nil, r.t0)
		case opRepack:
			s.repacks = append(s.repacks, r)
		case opPlace:
			s.places = append(s.places, r)
		}
	}
	s.met.noteBatch(len(s.batch))
	s.mu.Unlock()
	s.flushJournal()
	// Re-pack rounds solve, so they run outside the lock (repack takes
	// and drops it around each candidate's ledger edits).
	for _, r := range s.repacks { //soar:coldpath re-packing is the low-priority slow path
		rt0 := time.Now()
		r.moved, r.recovered = s.repack(r.k)
		s.flushJournal()
		// Span v2 carries milli-Φ: spans are integer-valued.
		s.met.tr.Record(s.met.opRepack, rt0, time.Since(rt0), int64(r.moved), int64(r.recovered*1e3))
	}
	for _, r := range s.batch {
		if r.op == opCheckpoint { //soar:coldpath rare, and copies the whole lease table
			st := time.Now()
			r.snap = s.snapshotState()
			s.met.ckptSnapshotSeconds.Observe(time.Since(st).Seconds())
		}
		if r.op != opPlace {
			r.done <- struct{}{}
		}
	}
	if len(s.places) == 0 {
		// The batch span is recorded at both exits: runBatch is a hotpath
		// function, so no defer.
		s.met.noteBatchSpan(t0, len(s.batch), 0)
		return
	}

	// Solve phase: every placement is solved against the same
	// availability snapshot; the ledger is quiescent until batchWG is
	// done, so workers read it without locks.
	if len(s.places) == 1 {
		s.solveOn(&s.bgSol, s.places[0])
	} else {
		s.batchNext.Store(0)
		n := min(len(s.places), len(s.workers))
		s.batchWG.Add(n)
		for i := 0; i < n; i++ {
			s.workers[i].wake <- struct{}{}
		}
		s.batchWG.Wait()
	}

	// Commit phase, in arrival order.
	for _, r := range s.places {
		s.commit(r)
	}
	s.flushJournal()
	for _, r := range s.places {
		r.done <- struct{}{}
	}
	s.met.noteBatchSpan(t0, len(s.batch), len(s.places))
}

// solveOn solves r's placement on sol's engine — rebuilt only if the
// budget changed, otherwise patched in place (see solver.ensure) — and
// records the outputs on r. The dispatcher's own engine solves only
// while the pool is idle, so its flush is spread over the pool.
//
//soar:hotpath
func (s *Scheduler) solveOn(sol *solver, r *request) {
	t0 := time.Now()
	eng := sol.ensure(s.t, r.load, s.tab.ledger.Avail(), r.k)
	if sol == &s.bgSol {
		s.spread(eng)
	}
	if cap(r.blue) < s.t.N() {
		r.blue = make([]bool, s.t.N()) //soar:coldpath first use of a pooled request
	}
	r.blue = r.blue[:s.t.N()]
	r.phi = eng.SolveInto(r.blue)
	r.allRed = s.allRed(r.load)
	s.met.noteSolve(t0, int64(r.k), int64(eng.Recomputed()))
}

// lanesPerCrew is how many lanes a split flush gets per goroutine of
// the crew. A goroutine can join late — its P was busy or asleep —
// and with one lane each the others then run its lane too; with
// several, the latecomer still takes the lanes that are left.
const lanesPerCrew = 4

// spread runs the pending flush of the dispatcher's engine across the
// idle worker pool when it is dense (core.Incremental.Lanes): the
// dispatcher and crew-1 workers take lanes from the batch cursor in
// the usual wake→batchWG window, and the switches above the cut are
// left to the solve's own flush. A sparse flush stays on the
// dispatcher. Only the dispatcher calls it, and only while no batch is
// out on the pool.
//
//soar:hotpath
func (s *Scheduler) spread(eng *core.Incremental) {
	if s.crew < 2 {
		return
	}
	n := eng.Lanes(s.crew * lanesPerCrew)
	if n == 0 {
		return
	}
	s.split, s.splitN = eng, n
	s.batchNext.Store(0)
	s.batchWG.Add(s.crew - 1) // crew ≤ Workers+1
	for _, w := range s.workers[:s.crew-1] {
		w.wake <- struct{}{}
	}
	// A woken goroutine is queued to run next on the waker's own P,
	// where it waits for the dispatcher to block unless an idle P
	// steals it, which on a 2-vCPU box often took longer than the
	// dispatcher's own lanes. Yielding lets the worker start here and
	// puts the dispatcher on the global queue, which an idle P checks
	// before it steals.
	runtime.Gosched()
	s.flushLanes()
	s.batchWG.Wait()
	s.split = nil
	s.met.splits.Inc()
}

// flushLanes takes lanes of the split engine from the batch cursor
// until none is left; the dispatcher and the woken workers all run it.
//
//soar:hotpath
func (s *Scheduler) flushLanes() {
	for {
		i := int(s.batchNext.Add(1)) - 1
		if i >= s.splitN {
			return
		}
		s.split.FlushLane(i)
	}
}

// allRed returns φ with no aggregation at all: every server's messages
// pay the full path to the destination. Equal to
// reduce.Utilization(t, load, no-blues) without the O(n) allocation.
//
//soar:hotpath
func (s *Scheduler) allRed(load []int) float64 {
	var phi float64
	for v, l := range load {
		if l != 0 {
			phi += float64(l) * s.t.RhoUp(v, s.t.Depth(v))
		}
	}
	return phi
}

// commit charges r's placement against the ledger and creates the
// lease. If an earlier commit of this batch exhausted a switch the
// optimistic solve picked, the placement is re-solved against the
// updated availability set first — the slow path that keeps optimistic
// batch parallelism oversubscription-free.
//
// The conflict check, the re-solve and the tenant-record pool Get all
// run before mu is taken: the dispatcher is the ledger's only writer,
// so its own unlocked reads cannot race, and soarlint's lockdiscipline
// analyzer proves no solve or blocking pool op ever happens under mu.
// The lock protects exactly the ledger/lease mutation, so a concurrent
// Lookup may observe a batch mid-commit — each lease appears atomically.
//
//soar:hotpath
func (s *Scheduler) commit(r *request) {
	for v, b := range r.blue {
		if b && s.tab.ledger.Residual(v) <= 0 {
			s.solveOn(&s.bgSol, r)
			r.conflicted = true
			break
		}
	}
	ten := s.tenPool.Get().(*tenant)
	ten.k = r.k
	ten.phi = r.phi
	ten.allRed = r.allRed
	ten.blue = ten.blue[:0]
	for v, b := range r.blue {
		if b {
			ten.blue = append(ten.blue, v)
		}
	}
	ten.load.set(r.load)

	s.mu.Lock()
	// The fence runs under the commit lock: internal/ha flips the shard
	// epoch before the promoted standby serves, so every mutation of a
	// superseded primary from that point on lands here and is rejected.
	if s.cfg.Fence != nil {
		if err := s.cfg.Fence(); err != nil { //soar:coldpath replication fencing enabled
			s.mu.Unlock()
			s.tenPool.Put(ten)
			r.err = err
			return
		}
	}
	ten.id = s.tab.nextID
	s.tab.file(ten)
	s.journalAppend(wire.DeltaPlace, ten)
	conflicted := r.conflicted
	if conflicted {
		s.met.conflicts.Inc()
		r.conflicted = false
	}
	s.met.notePlace(r.t0, int64(len(ten.blue)), conflicted)
	s.mu.Unlock()

	// r.lease is owned by the blocked submitter until done is signalled.
	l := r.lease
	l.ID = ten.id
	l.K = ten.k
	l.Phi = ten.phi
	l.AllRed = ten.allRed
	l.Blue = append(l.Blue[:0], ten.blue...)
	l.Load = append(l.Load[:0], r.load...)
}

// releaseLocked reclaims a tenant's switches.
//
//soar:hotpath
func (s *Scheduler) releaseLocked(id int64) error {
	ten, ok := s.tab.leases[id]
	if !ok {
		return ErrNotFound
	}
	if s.cfg.Fence != nil {
		if err := s.cfg.Fence(); err != nil { //soar:coldpath replication fencing enabled
			return err
		}
	}
	s.tab.drop(ten)
	s.journalAppend(wire.DeltaRelease, ten)
	s.tenPool.Put(ten)
	return nil
}

// drainAndFail answers every queued and late-arriving request with
// ErrClosed, then returns once no submitter is in flight.
func (s *Scheduler) drainAndFail() {
	go func() {
		s.inflight.Wait()
		close(s.reqs)
	}()
	for r := range s.reqs {
		r.err = ErrClosed
		r.moved, r.recovered = 0, 0
		r.done <- struct{}{}
	}
}
