package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// poisson returns the due times of a Poisson arrival process of the given
// rate (ops/s) over d, as offsets from the start of the rung. The whole
// schedule exists before the first request is sent: arrivals come from a
// clock, never from the previous response.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// timing is one open-loop op as the generator saw it, all three as
// offsets from the start of the rung.
type timing struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is measured from the due time, not the send time: an op that
// waited behind a stalled one is charged the wait.
func (t timing) latency() time.Duration { return t.done - t.due }

// lateness is how long after its due time the op was actually sent.
func (t timing) lateness() time.Duration { return t.sent - t.due }

// runOpen sends op i at due[i] on the first free worker and returns one
// timing per op. Workers take ops in schedule order, so a worker that is
// still busy at an op's due time delays it, and that delay counts.
func runOpen(due []time.Duration, workers int, do func(worker, i int) bool) []timing {
	out := make([]timing, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		clock, err := newAlarm()
		if err != nil {
			panic(err) // no timerfd: not a Linux this benchmark can run on
		}
		go func(w int) {
			defer wg.Done()
			defer clock.f.Close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				clock.wait(due[i] - time.Since(start))
				t := timing{due: due[i], sent: time.Since(start)}
				t.ok = do(w, i)
				t.done = time.Since(start)
				out[i] = t
			}
		}(w)
	}
	wg.Wait()
	return out
}

// alarm wakes one goroutine at a point in time to within the kernel's
// timer slack (50 µs). time.Sleep cannot: an otherwise idle Go process
// parks in epoll_wait, whose timeout counts whole milliseconds, so it
// wakes up to a millisecond late — a quarter of the latency measured
// here. A timerfd is an ordinary descriptor to the runtime's poller,
// which returns from epoll_wait the moment it fires.
type alarm struct{ f *os.File }

func newAlarm() (*alarm, error) {
	const clockMonotonic, nonblock = 1, syscall.O_NONBLOCK
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &alarm{os.NewFile(fd, "timerfd")}, nil
}

// wait returns once d has passed.
func (a *alarm) wait(d time.Duration) {
	if d <= 0 {
		return
	}
	// struct itimerspec{it_interval, it_value}: fire once, d from now.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	a.f.Read(expirations[:])
}

// runClosed has every worker call do back-to-back for n spans of
// length d each, and returns how many calls completed in each span.
func runClosed(d time.Duration, n, workers int, do func(worker int)) []int {
	done := make([]atomic.Int64, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				do(w)
				k := int(time.Since(start) / d)
				if k >= n {
					return
				}
				done[k].Add(1)
			}
		}(w)
	}
	wg.Wait()
	out := make([]int, n)
	for k := range out {
		out[k] = int(done[k].Load())
	}
	return out
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value is set by one or two outliers and
// does not repeat between runs.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted, or an
// error when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(p*float64(n)/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d", p, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rung is the outcome of one open-loop run at one rate.
type rung struct {
	Phase      string  `json:"phase"`
	Rate       float64 `json:"rate_ops"`
	Seconds    float64 `json:"seconds"`
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	Places     int     `json:"places"`
	Releases   int     `json:"releases"`
	PlaceP50   float64 `json:"place_p50_ms"`
	PlaceP95   float64 `json:"place_p95_ms"`
	ReleaseP50 float64 `json:"release_p50_ms"`
	ReleaseP95 float64 `json:"release_p95_ms"`
	// One or two garbage-collection cycles of the daemon fall into a
	// rung and decide everything from p99 up, so these do not repeat
	// between runs: they are printed, never gated on.
	PlaceP99  float64 `json:"place_p99_ms,omitempty"`
	PlaceP999 float64 `json:"place_p99_9_ms,omitempty"`
	PlaceMax  float64 `json:"place_max_ms"`
	LateP50   float64 `json:"lateness_p50_us"`
	LateP95   float64 `json:"lateness_p95_us"`
	LateMax   float64 `json:"lateness_max_us"`
	// DrainMs is how long after the last due time the last op finished.
	DrainMs float64 `json:"drain_ms"`
	Pass    bool    `json:"pass"`
	// CPUMsPerOp is the daemon's CPU time over the rung per op; set on
	// the windows of the untraced pass's reference rung.
	CPUMsPerOp float64 `json:"daemon_cpu_ms_per_op,omitempty"`
}

// The tails are gated as ratios to the same window's median admission.
// The host has slow phases that stretch every latency alike, by a third
// or more on the reference box; gated in milliseconds they would count
// that once in place_p50_ms and again, amplified by queueing, in each
// tail.
func (r rung) placeTail() float64   { return r.PlaceP95 / r.PlaceP50 }
func (r rung) releaseTail() float64 { return r.ReleaseP95 / r.PlaceP50 }

// drainLimit is how long after the last due time the backlog may take
// to empty before the rung counts as unstable.
const drainLimit = time.Second

// summarize folds a rung's timings into percentiles. isPlace tells the
// two op kinds apart; limitMs is the workload's Place p95 limit.
func summarize(phase string, rate float64, ts []timing, isPlace func(i int) bool, limitMs float64) (rung, error) {
	r := rung{Phase: phase, Rate: rate, Ops: len(ts)}
	var place, release, late []float64
	var lastDue, lastDone time.Duration
	for i, t := range ts {
		if !t.ok {
			r.Failed++
		}
		ms := float64(t.latency()) / float64(time.Millisecond)
		if isPlace(i) {
			place = append(place, ms)
		} else {
			release = append(release, ms)
		}
		late = append(late, float64(t.lateness())/float64(time.Microsecond))
		lastDue = max(lastDue, t.due)
		lastDone = max(lastDone, t.done)
	}
	sort.Float64s(place)
	sort.Float64s(release)
	sort.Float64s(late)
	r.Places, r.Releases = len(place), len(release)
	r.Seconds = lastDue.Seconds()
	r.DrainMs = float64(lastDone-lastDue) / float64(time.Millisecond)
	var err error
	for _, q := range []struct {
		dst *float64
		v   []float64
		p   float64
	}{
		{&r.PlaceP50, place, 50}, {&r.PlaceP95, place, 95},
		{&r.ReleaseP50, release, 50}, {&r.ReleaseP95, release, 95},
		{&r.LateP50, late, 50}, {&r.LateP95, late, 95},
	} {
		if *q.dst, err = percentile(q.v, q.p); err != nil {
			return r, fmt.Errorf("%s rung at %g ops/s: %w", phase, rate, err)
		}
	}
	// Informational, and absent where the rung is too short to support them.
	r.PlaceP99, _ = percentile(place, 99)
	r.PlaceP999, _ = percentile(place, 99.9)
	r.PlaceMax = place[len(place)-1]
	r.LateMax = late[len(late)-1]
	r.Pass = r.Failed == 0 && r.PlaceP95 <= limitMs && lastDone-lastDue <= drainLimit
	return r, nil
}

// climb runs the ladder's rungs in order and stops at the first that
// fails; it returns every rung run and the highest passing rate (0 when
// the first rung already fails).
func climb(rates []float64, run func(rate float64) (rung, error)) ([]rung, float64, error) {
	var rungs []rung
	best := 0.0
	for _, rate := range rates {
		r, err := run(rate)
		if err != nil {
			return rungs, best, err
		}
		rungs = append(rungs, r)
		if !r.Pass {
			break
		}
		best = rate
	}
	return rungs, best, nil
}
