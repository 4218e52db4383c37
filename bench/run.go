package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"soar/internal/core"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// metric is one named number of the ledger.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind Value, where it is a percentile or a
	// median of timed calls.
	N int `json:"n,omitempty"`
}

// pass is what one (workload, traced or not) run reports.
type pass struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers printed for the reader and never gated on.
	Info  map[string]metric `json:"info,omitempty"`
	Rungs []rung            `json:"rungs"`
}

// tally counts operations and output checks; a failed check is a failed
// operation.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

func (t *tally) note(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
	return false
}

// held is one live lease and the pool tenant it was placed for.
type held struct {
	id     int64
	tenant int
}

// leaseSet is the set of live leases Releases draw from.
type leaseSet struct {
	mu  sync.Mutex
	rng *rand.Rand
	ls  []held
}

func (s *leaseSet) add(h held) {
	s.mu.Lock()
	s.ls = append(s.ls, h)
	s.mu.Unlock()
}

// take removes and returns a random live lease.
func (s *leaseSet) take() (held, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ls)
	if n == 0 {
		return held{}, false
	}
	i := s.rng.Intn(n)
	h := s.ls[i]
	s.ls[i] = s.ls[n-1]
	s.ls = s.ls[:n-1]
	return h, true
}

func (s *leaseSet) snapshot() []held {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]held(nil), s.ls...)
}

// placed is a Place reply kept for checking after the timed section.
type placed struct {
	tenant int
	l      *lease
}

// session drives one daemon through a workload's phases.
type session struct {
	w       workload
	tree    *topology.Tree
	pool    []tenant
	workers int        // open-loop workers, one connection each
	rng     *rand.Rand // schedules and tenant picks; derived from the seed
	tally   *tally

	bin      string
	ckptFile string
	logPath  string

	d    *daemon
	c    *client
	live *leaseSet
	// replies[w] collects worker w's Place replies until checkReplies.
	replies [][]placed
}

func newSession(e env, w workload) (*session, error) {
	pool, err := makePool(e.tree, w, e.seed)
	if err != nil {
		return nil, err
	}
	return &session{
		w: w, tree: e.tree, pool: pool, workers: e.workers,
		rng:      rand.New(rand.NewSource(e.seed ^ 0x5eed)),
		tally:    new(tally),
		bin:      e.bin,
		ckptFile: filepath.Join(outDir, fmt.Sprintf("ckpt-%s-%d.bin", w.name, os.Getpid())),
		logPath:  filepath.Join(outDir, "daemon-"+w.name+".log"),
		replies:  make([][]placed, bulkWorkers),
	}, nil
}

// startWorkload execs w's daemon and, on a sharded one, waits until
// every standby has received its checkpoint stream: an admission that
// races an attaching standby is an order of magnitude slower. It returns
// the daemon, a client for it, and exec → ready.
func startWorkload(bin string, w workload, ckptFile, logPath string) (*daemon, *client, time.Duration, error) {
	d, took, err := startDaemon(bin, w.daemonArgs(ckptFile), logPath)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.base, bulkWorkers, false)
	if w.shardLevel < 0 {
		return d, c, took, nil
	}
	attached, err := waitStandbys(c, w.replicas)
	if err != nil {
		c.close()
		d.kill()
		return nil, nil, 0, err
	}
	return d, c, took + attached, nil
}

// waitStandbys polls a sharded daemon until every shard has a primary
// and all its standbys, each with its checkpoint stream received.
func waitStandbys(c *client, replicas int) (time.Duration, error) {
	clock, err := newAlarm()
	if err != nil {
		return 0, err
	}
	defer clock.f.Close()
	t0 := time.Now()
	for time.Since(t0) < readyDeadline {
		var out struct {
			Shards []struct {
				PrimaryNode int `json:"primary_node"`
				Standbys    int `json:"standbys"`
			} `json:"shards"`
		}
		if err := c.getJSON("/v1/shards", &out); err != nil {
			return 0, err
		}
		fams, err := c.scrape("/metrics")
		if err != nil {
			return 0, err
		}
		attached := len(out.Shards) > 0 && int(sample(fams, "soar_ha_ckpt_streams_total")) >= len(out.Shards)*replicas
		for _, sh := range out.Shards {
			attached = attached && sh.PrimaryNode >= 0 && sh.Standbys == replicas
		}
		if attached {
			return time.Since(t0), nil
		}
		clock.wait(pollEvery)
	}
	return 0, fmt.Errorf("standbys not attached within %v", readyDeadline)
}

// start starts the session's daemon.
func (s *session) start() (time.Duration, error) {
	d, c, took, err := startWorkload(s.bin, s.w, s.ckptFile, s.logPath)
	if err != nil {
		return 0, err
	}
	s.d, s.c = d, c
	return took, nil
}

// coldStarts times exec → ready of a second daemon with the workload's
// command line, coldStartsEach times, while the session's daemon sits
// idle; it returns the seconds each took. A checkpointing daemon starts
// from a copy of the file the session's daemon saved last, so its start
// restores the standing population (nil before the first save). These
// starts are spread over the measured span because a start takes
// milliseconds and a slow burst of the host tens of seconds.
func (s *session) coldStarts() ([]float64, error) {
	ckpt := ""
	if s.w.checkpoint {
		b, err := os.ReadFile(s.ckptFile)
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		ckpt = s.ckptFile + ".copy"
		defer os.Remove(ckpt)
		if err := os.WriteFile(ckpt, b, 0o644); err != nil {
			return nil, err
		}
	}
	var took []float64
	for i := 0; i < s.w.coldStartsEach(); i++ {
		d, c, t, err := startWorkload(s.bin, s.w, ckpt, s.logPath)
		if err != nil {
			return nil, err
		}
		took = append(took, t.Seconds())
		c.close()
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	return took, nil
}

func (s *session) stop() error {
	if s.d == nil {
		return nil
	}
	s.c.close()
	err := s.d.stop()
	s.d = nil
	return err
}

// place admits pool tenant ti and files the lease as live.
func (s *session) place(w, req, ti int) bool {
	l, err := s.c.place(w, req, s.pool[ti].body)
	if !s.tally.note(err) {
		return false
	}
	s.replies[w] = append(s.replies[w], placed{ti, l})
	s.live.add(held{l.ID, ti})
	return true
}

// releaseOne ends a random live lease.
func (s *session) releaseOne(w, req int) bool {
	h, ok := s.live.take()
	if !ok {
		return s.tally.note(errors.New("release scheduled with no live lease"))
	}
	return s.tally.note(s.c.release(w, req, h.id))
}

// bulkWorkers is the number of connections the unmeasured bulk phases
// use — loading and releasing the standing population, looking every
// lease up. Many concurrent arrivals share the daemon's batching window,
// so set-up takes a third of the time it would on the measured phases'
// connections.
const bulkWorkers = 16

// bulk calls do(worker, i) for every i in [0, n) from bulkWorkers
// goroutines.
func bulk(n int, do func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < bulkWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// populate places tenants until `standing` leases are live.
func (s *session) populate() {
	s.live = &leaseSet{rng: rand.New(rand.NewSource(s.rng.Int63()))}
	off := s.rng.Intn(poolSize)
	bulk(s.w.standing, func(w, i int) { s.place(w, 0, (off+i)%poolSize) })
}

// releaseAll drains the live set.
func (s *session) releaseAll() {
	bulk(len(s.live.snapshot()), func(w, _ int) { s.releaseOne(w, 0) })
}

// checkLease verifies one Place reply against the request it answered.
func checkLease(t *topology.Tree, load []int, k int, l *lease) error {
	if len(l.Blue) > k {
		return fmt.Errorf("lease %d: %d blue switches for k=%d", l.ID, len(l.Blue), k)
	}
	blue := make([]bool, t.N())
	for _, v := range l.Blue {
		if v < 0 || v >= t.N() || blue[v] {
			return fmt.Errorf("lease %d: bad or repeated blue switch %d", l.ID, v)
		}
		blue[v] = true
	}
	if phi := reduce.Utilization(t, load, blue); !near(phi, l.Phi) {
		return fmt.Errorf("lease %d: reported phi %v, blue set costs %v", l.ID, l.Phi, phi)
	}
	if l.Phi > l.AllRed && !near(l.Phi, l.AllRed) {
		return fmt.Errorf("lease %d: phi %v above all-red %v", l.ID, l.Phi, l.AllRed)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// checkReplies verifies every Place reply collected since the last call
// and returns the Φ/all-red ratios of the leases it checked.
func (s *session) checkReplies() []float64 {
	var ratios []float64
	for w := range s.replies {
		for _, p := range s.replies[w] {
			s.tally.note(checkLease(s.tree, s.pool[p.tenant].load, s.w.k, p.l))
			ratios = append(ratios, p.l.Phi/p.l.AllRed)
		}
		s.replies[w] = s.replies[w][:0]
	}
	return ratios
}

// warmOps is the length of the single-connection warm-up, in ops.
const warmOps = 200

// warmUp runs Place and Release alternately on one connection. With one
// connection nothing else changes the ledger between a GET /v1/residual
// and the next Place — except the daemon's re-packer — so on single-node
// daemons every tenth placement is re-solved here from that residual and
// must cost the same.
func (s *session) warmUp() error {
	for i := 0; i < warmOps; i++ {
		if i%2 == 1 {
			s.releaseOne(0, 0)
			continue
		}
		ti := s.rng.Intn(poolSize)
		if i%20 != 0 || s.w.shardLevel >= 0 {
			s.place(0, 0, ti)
			continue
		}
		if err := s.placeResolved(ti, resolveTries); err != nil {
			return err
		}
	}
	return nil
}

// resolveTries is how often a re-solved placement is tried before a
// mismatch counts: a re-packing round starts once a second and lasts
// milliseconds, so two in a row already do not collide with one.
const resolveTries = 3

// placeResolved places tenant ti and compares the cost with an
// independent core.Solve on the availability read just before. The
// daemon's re-packer credits a tenant's slots while it re-solves it, so a
// residual read during a round shows slots free that the Place after it
// cannot use, whether or not the round ends up moving anyone; the Place
// itself waits for the round to yield. A mismatch is therefore retried
// when a round ended between the two scrapes around it.
func (s *session) placeResolved(ti, tries int) error {
	rounds := func() (float64, error) {
		fams, err := s.c.scrape("/metrics")
		return sample(fams, "soar_sched_repack_rounds_total"), err
	}
	r0, err := rounds()
	if err != nil {
		return err
	}
	res, err := s.c.residual()
	if err != nil {
		return err
	}
	avail := make([]bool, len(res))
	for v, r := range res {
		avail[v] = r > 0
	}
	l, err := s.c.place(0, 0, s.pool[ti].body)
	if err != nil {
		s.tally.note(err)
		return nil
	}
	s.replies[0] = append(s.replies[0], placed{ti, l})
	s.live.add(held{l.ID, ti})
	want := core.Solve(s.tree, s.pool[ti].load, avail, s.w.k).Cost
	if near(want, l.Phi) {
		s.tally.note(nil)
		return nil
	}
	r1, err := rounds()
	if err != nil {
		return err
	}
	if tries > 1 && r1 != r0 {
		return s.placeResolved(ti, tries-1)
	}
	s.tally.note(fmt.Errorf("lease %d: daemon placed at phi %v, core.Solve on the same residual gives %v", l.ID, l.Phi, want))
	return nil
}

// drive sends Poisson arrivals at rate for d, even ops Place and odd ops
// Release so the population holds steady, and checks every reply.
func (s *session) drive(rate float64, d time.Duration) ([]timing, []float64) {
	due := poisson(s.rng, rate, d)
	pick := make([]int, len(due))
	for i := range pick {
		pick[i] = s.rng.Intn(poolSize)
	}
	ts := runOpen(due, s.workers, func(w, i int) bool {
		if isPlace(i) {
			return s.place(w, i+1, pick[i])
		}
		return s.releaseOne(w, i+1)
	})
	return ts, s.checkReplies()
}

func isPlace(i int) bool { return i%2 == 0 }

// openRung runs one measured open-loop rung and returns its summary and
// the Φ/all-red ratios of the leases it admitted.
func (s *session) openRung(phase string, rate float64, d time.Duration) (rung, []float64, error) {
	ts, ratios := s.drive(rate, d)
	r, err := summarize(phase, rate, ts, isPlace, s.w.limitMs)
	return r, ratios, err
}

// closedLoop has bulkWorkers clients each Place then Release the same
// lease, back-to-back, for d; it returns ops per second in each of the
// closedWindows spans d is cut into. Two clients would wait out one
// batching window per op and measure that latency again; sixteen fill the
// window, so the figure is what the daemon can commit per second on the
// cores it shares with the generator.
func (s *session) closedLoop(d time.Duration) []float64 {
	picks := make([]*rand.Rand, bulkWorkers)
	for w := range picks {
		picks[w] = rand.New(rand.NewSource(s.rng.Int63()))
	}
	span := d / closedWindows
	pairs := runClosed(span, closedWindows, bulkWorkers, func(w int) {
		ti := picks[w].Intn(poolSize)
		l, err := s.c.place(w, 0, s.pool[ti].body)
		if !s.tally.note(err) {
			return
		}
		s.replies[w] = append(s.replies[w], placed{ti, l})
		s.tally.note(s.c.release(w, 0, l.ID))
	})
	s.checkReplies()
	out := make([]float64, len(pairs))
	for i, n := range pairs {
		out[i] = float64(2*n) / span.Seconds()
	}
	return out
}

// saver posts a checkpoint save every period until stopped, timing each
// round trip, on a connection of its own.
type saver struct {
	stop chan struct{}
	done chan struct{}
	ms   []float64
}

func (s *session) startSaver(period time.Duration) *saver {
	sv := &saver{stop: make(chan struct{}), done: make(chan struct{})}
	hc := &http.Client{Timeout: 30 * time.Second}
	go func() {
		defer close(sv.done)
		defer hc.CloseIdleConnections()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-sv.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			resp, err := hc.Post(s.d.base+"/v1/checkpoint", "", nil)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("POST /v1/checkpoint: HTTP %d", resp.StatusCode)
				}
			}
			if s.tally.note(err) {
				sv.ms = append(sv.ms, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
	}()
	return sv
}

func (sv *saver) finish() []float64 {
	close(sv.stop)
	<-sv.done
	return sv.ms
}

// savePeriod is how often a checkpointing workload saves while serving.
const savePeriod = 4 * time.Second

// checkEmpty verifies the end state after every lease was released: a
// single node's residual is back at the initial capacities, a sharded
// daemon reports no tenant on any shard.
func (s *session) checkEmpty() {
	if s.w.shardLevel < 0 {
		res, err := s.c.residual()
		if err == nil {
			for v, r := range res {
				if r != s.w.capacity {
					err = fmt.Errorf("after releasing everything switch %d has residual %d, want %d", v, r, s.w.capacity)
					break
				}
			}
		}
		s.tally.note(err)
		return
	}
	var out struct {
		Shards []struct {
			Index   int `json:"index"`
			Tenants int `json:"tenants"`
		} `json:"shards"`
	}
	err := s.c.getJSON("/v1/shards", &out)
	for _, sh := range out.Shards {
		if err == nil && sh.Tenants != 0 {
			err = fmt.Errorf("after releasing everything shard %d holds %d tenants", sh.Index, sh.Tenants)
		}
	}
	s.tally.note(err)
}

// lookupAll fetches every live lease, in the order of hs.
func (s *session) lookupAll(hs []held) []*lease {
	out := make([]*lease, len(hs))
	bulk(len(hs), func(w, i int) {
		l, err := s.c.lookup(w, hs[i].id)
		if s.tally.note(err) {
			out[i] = l
		}
	})
	return out
}

// restarts is how many times a checkpointing workload ends by
// restarting its daemon and verifying every lease: about a second each.
const restarts = 2

// restartAll stops the checkpointing daemon and starts it again
// `restarts` times with the same command line, timing exec → ready. It
// must come back each time with every lease it held when it was stopped,
// field for field (see sameLease). The last incarnation is left running.
func (s *session) restartAll() ([]float64, error) {
	hs := s.live.snapshot()
	before := s.lookupAll(hs)
	var took []float64
	for i := 0; i < restarts; i++ {
		if err := s.stop(); err != nil {
			return nil, err
		}
		d, err := s.start()
		if err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
		after := s.lookupAll(hs)
		for j, want := range before {
			if want != nil && after[j] != nil { // a failed lookup is already counted
				s.tally.note(sameLease(want, after[j]))
			}
		}
	}
	return took, nil
}

// sameLease compares a lease before and after a restart field for
// field, Φ and all-red by their bits. The daemon's re-packer is off on
// the checkpointing workload (see daemonArgs), so nothing may differ.
func sameLease(want, got *lease) error {
	same := want.ID == got.ID && want.K == got.K && len(want.Blue) == len(got.Blue) &&
		math.Float64bits(want.AllRed) == math.Float64bits(got.AllRed) &&
		math.Float64bits(want.Phi) == math.Float64bits(got.Phi)
	if same {
		a, b := slices.Sorted(slices.Values(want.Blue)), slices.Sorted(slices.Values(got.Blue))
		same = slices.Equal(a, b)
	}
	if !same {
		return fmt.Errorf("lease %d changed across restart: %+v → %+v", want.ID, *want, *got)
	}
	return nil
}
