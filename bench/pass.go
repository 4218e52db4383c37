package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"soar/internal/obs"
	"soar/internal/topology"
)

// The names of the ledger. BENCHMARK.json lists the same names with
// their bounds and directions; TestLedgerMatchesBenchmarkJSON holds the
// two together. Every workload reports every name, so a name means the
// same thing on every row of a comparison.
var endToEndNames = []string{
	"place_p50_ms", "place_p95_ratio", "release_p95_ratio", "closed_tput_ops",
	"phi_ratio_mean", "rss_mb", "setup_s", "restore_s",
}

// The measured span of the untraced pass alternates between the open
// loop at the reference rate and the closed loop, `cycles` times, so that
// each metric is sampled across the whole span: the host has slow bursts
// that last tens of seconds, and a metric measured in one stretch is at
// the mercy of where that stretch falls. openShare of a cycle is open
// loop. The open part is cut into windows, each a rung of its own, sized
// to hold windowPlaces Place samples or more: a p95 wants 200 samples for
// its 10 beyond it, and a Poisson schedule delivers a few per cent fewer
// arrivals than its rate on some seeds, which must not cost the run. The
// closed part is cut into closedWindows spans; it needs a second or two
// to reach its rate, so a cycle may not be much shorter than it is.
const (
	cycles        = 2
	openShare     = 0.6
	windowPlaces  = 260
	closedWindows = 4
)

// windowCount is how many windows an open-loop stretch of length d at
// rate ops/s (half of them Places) is cut into. It depends on the
// schedule's parameters only, never on the arrivals drawn, so every seed
// of a workload reports the best of the same number of windows.
func windowCount(rate float64, d time.Duration) int {
	return max(1, int(rate*d.Seconds()/2/windowPlaces))
}

// warmOpen is the length of the untimed open-loop warm-up at the
// reference rate.
const warmOpen = 2 * time.Second

// env is what every pass of one invocation shares.
type env struct {
	bin     string
	tree    *topology.Tree
	workers int
	seed    int64
	seconds int
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// setUp starts the daemon and loads the standing population; it returns
// how long that took, build time excluded.
func (s *session) setUp() (float64, error) {
	t0 := time.Now()
	if _, err := s.start(); err != nil {
		return 0, err
	}
	s.populate()
	s.checkReplies()
	return time.Since(t0).Seconds(), nil
}

// finish fills the pass's verdict from the session's tally. A window of
// the reference rung whose backlog does not drain was not measured at
// the stated rate; one such window is a stall of the host and merely not
// the best, but a daemon that cannot hold the rate drains none of them.
func (s *session) finish(p *pass) {
	p.Attempted = int(s.tally.attempted.Load())
	p.Failed = int(s.tally.failed.Load())
	p.Errors = s.tally.errs
	p.Correct = p.Failed == 0
	windows, stuck := 0, 0
	for _, r := range p.Rungs {
		if r.Phase == "ladder" {
			continue
		}
		windows++
		if r.DrainMs > float64(drainLimit/time.Millisecond) {
			stuck++
			p.Errors = append(p.Errors, fmt.Sprintf("%s rung at %g ops/s: backlog took %.0f ms to drain", r.Phase, r.Rate, r.DrainMs))
		}
	}
	if 2*stuck > windows {
		p.Correct = false
	}
}

// referenceWindow runs one window of the reference rung: a short
// open-loop rung of its own, with the daemon's CPU time read around it.
func (s *session) referenceWindow(d time.Duration) (rung, []float64, error) {
	cpu0, err := s.d.cpuMs()
	if err != nil {
		return rung{}, nil, err
	}
	r, ratios, err := s.openRung("reference", s.w.refRate, d)
	if err != nil {
		return r, nil, err
	}
	cpu1, err := s.d.cpuMs()
	r.CPUMsPerOp = (cpu1 - cpu0) / float64(r.Ops)
	return r, ratios, err
}

// best returns the smallest f over rungs: interference only ever adds
// time, so the best window is the one that saw the least of it, while a
// slower daemon is slower in every window.
func best(rungs []rung, f func(rung) float64) float64 {
	v := math.Inf(1)
	for _, r := range rungs {
		v = min(v, f(r))
	}
	return v
}

// runUntraced measures a workload's end-to-end metrics: set-up (several
// times), warm-up, the measured span — `seconds` long, alternating
// between windows of the open-loop reference rung and the closed loop,
// with cold starts of a second daemon in between — then the optional rate
// ladder, the end-state check and, on a checkpointing daemon, the
// restarts. Each metric is that of the best window.
func runUntraced(e env, w workload, ladder bool) (*pass, error) {
	s, err := newSession(e, w)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	defer os.Remove(s.ckptFile)
	p := &pass{Workload: w.name, Seed: e.seed, Seconds: e.seconds, Metrics: map[string]metric{}, Info: map[string]metric{}}

	var setupS []float64
	for i := 0; i < w.setups(); i++ {
		if err := s.stop(); err != nil {
			return nil, err
		}
		os.Remove(s.ckptFile) // every set-up starts from an empty control plane
		took, err := s.setUp()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took)
	}
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	s.drive(w.refRate, warmOpen)

	var sv *saver
	if w.checkpoint {
		sv = s.startSaver(savePeriod)
	}
	cycle := time.Duration(e.seconds) * time.Second / cycles
	openD := time.Duration(float64(cycle) * openShare)
	n := windowCount(w.refRate, openD)
	var ref []rung
	var ratios, tput, startS []float64
	coldStarts := func() error {
		took, err := s.coldStarts()
		startS = append(startS, took...)
		return err
	}
	for c := 0; c < cycles; c++ {
		for k := 0; k < n; k++ {
			r, phi, err := s.referenceWindow(openD / time.Duration(n))
			if err != nil {
				return nil, err
			}
			ref, ratios = append(ref, r), append(ratios, phi...)
		}
		if err := coldStarts(); err != nil {
			return nil, err
		}
		tput = append(tput, s.closedLoop(cycle-openD)...)
		if err := coldStarts(); err != nil {
			return nil, err
		}
	}
	p.Rungs = append(p.Rungs, ref...)
	if sv != nil {
		saves := sv.finish()
		p.Info["ckpt_save_p50_ms"] = metric{median(saves), "ms", len(saves)}
	}

	if ladder {
		rungs, maxRate, err := climb(w.ladder, func(rate float64) (rung, error) {
			// Slow rungs run longer, so that p95 has its samples.
			r, _, err := s.openRung("ladder", rate, max(ladderRung, time.Duration(ladderMinOps/rate*float64(time.Second))))
			return r, err
		})
		if err != nil {
			return nil, err
		}
		p.Rungs = append(p.Rungs, rungs...)
		p.Info["max_rate_ops"] = metric{Value: maxRate, Unit: "1/s"}
	}

	rss, err := s.d.hwmMB()
	if err != nil {
		return nil, err
	}
	if w.checkpoint {
		took, err := s.restartAll()
		if err != nil {
			return nil, err
		}
		startS = append(startS, took...)
	}
	s.releaseAll()
	s.checkEmpty()
	if err := s.stop(); err != nil {
		return nil, err
	}

	perWindow := ref[0].Places
	p.Metrics["place_p50_ms"] = metric{best(ref, func(r rung) float64 { return r.PlaceP50 }), "ms", perWindow}
	p.Metrics["place_p95_ratio"] = metric{best(ref, rung.placeTail), "ratio", perWindow}
	p.Metrics["release_p95_ratio"] = metric{best(ref, rung.releaseTail), "ratio", perWindow}
	p.Metrics["closed_tput_ops"] = metric{slices.Max(tput), "1/s", len(tput)}
	p.Metrics["phi_ratio_mean"] = metric{mean(ratios), "ratio", len(ratios)}
	// Informational here, a per-layer metric of the traced pass: CPU time
	// per op follows the host's speed, which drifts by a quarter within
	// the hour, and no window of one run is safe from that.
	p.Info["daemon_cpu_ms_per_op"] = metric{best(ref, func(r rung) float64 { return r.CPUMsPerOp }), "ms", ref[0].Ops}
	p.Metrics["rss_mb"] = metric{Value: rss, Unit: "MB"}
	p.Metrics["setup_s"] = metric{median(setupS), "s", len(setupS)}
	p.Metrics["restore_s"] = metric{slices.Min(startS), "s", len(startS)}
	s.finish(p)
	return p, nil
}

// ladderRung is the length of one rung of the rate ladder, and
// ladderMinOps the number of ops a rung schedules at the least.
const (
	ladderRung   = 5 * time.Second
	ladderMinOps = 480
)

// scrapeAll reads every metrics page of the daemon: one on a single
// node; the cluster page plus one page per shard on a sharded daemon.
func (s *session) scrapeAll() ([]obs.TextFamily, error) {
	fams, err := s.c.scrape("/metrics")
	if err != nil || s.w.shardLevel < 0 {
		return fams, err
	}
	for k := 0; k < 1<<s.w.shardLevel; k++ {
		more, err := s.c.scrape(fmt.Sprintf("/metrics?shard=%d", k))
		if err != nil {
			return nil, err
		}
		fams = append(fams, more...)
	}
	return fams, nil
}

// spanP50 returns the median duration, in µs, of the spans called name
// under a root span called root.
func spanP50(spans []span, root, name string) metric {
	roots := map[int]bool{}
	for _, sp := range spans {
		if sp.Name == root {
			roots[sp.ID] = true
		}
	}
	var us []float64
	for _, sp := range spans {
		if sp.Name == name && roots[sp.Parent] {
			us = append(us, float64(sp.EndUs-sp.StartUs))
		}
	}
	return metric{median(us), "us", len(us)}
}

// runTraced produces a workload's per-layer numbers. It re-runs the
// reference rung twice on one daemon — client spans off, then on — so
// the difference is the tracing overhead, reads the daemon's own
// counters around both, then times each module's public functions in
// process (layers.go) and prints the budget that ties them to the
// measured median.
func runTraced(e env, w workload) (*pass, error) {
	s, err := newSession(e, w)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	defer os.Remove(s.ckptFile)
	p := &pass{Workload: w.name, Traced: true, Seed: e.seed, Seconds: e.seconds, Metrics: map[string]metric{}, Info: map[string]metric{}}

	if _, err := s.setUp(); err != nil {
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	s.drive(w.refRate, warmOpen)
	var sv *saver
	if w.checkpoint {
		sv = s.startSaver(savePeriod)
	}
	// The two rungs take half of `seconds`; the in-process probes below
	// take about as long again.
	half := time.Duration(e.seconds) * time.Second / 4
	before, err := s.scrapeAll()
	if err != nil {
		return nil, err
	}
	plain, _, err := s.referenceWindow(half)
	if err != nil {
		return nil, err
	}
	// Same daemon, same connections' worth of workers; only the client
	// changes, so the pair differs by the span recording alone.
	s.c.close()
	s.c = newClient(s.d.base, bulkWorkers, true)
	traced, _, err := s.openRung("traced", w.refRate, half)
	if err != nil {
		return nil, err
	}
	after, err := s.scrapeAll()
	if err != nil {
		return nil, err
	}
	p.Rungs = append(p.Rungs, plain, traced)
	saveMs := metric{Unit: "ms"} // 0 where the daemon has no checkpoint file
	if sv != nil {
		saves := sv.finish()
		saveMs = metric{median(saves), "ms", len(saves)}
	}
	var spans []span
	for _, log := range s.c.spans {
		spans = append(spans, log...)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	if err := writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	s.releaseAll()
	s.checkEmpty()
	if err := s.stop(); err != nil {
		return nil, err
	}

	delta := func(name string) float64 { return sample(after, name) - sample(before, name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := p.Metrics
	m["bench.lateness_p95_us"] = metric{plain.LateP95, "us", plain.Ops}
	m["client.encode_us"] = spanP50(spans, "place", "client.encode")
	m["client.roundtrip_us"] = spanP50(spans, "place", "client.roundtrip")
	m["client.decode_us"] = spanP50(spans, "place", "client.decode")
	m["trace_overhead_pct"] = metric{Value: 100 * (traced.PlaceP50 - plain.PlaceP50) / plain.PlaceP50, Unit: "%"}
	m["soar-naasd.ckpt_save_ms"] = saveMs
	m["soar-naasd.cpu_ms_per_op"] = metric{plain.CPUMsPerOp, "ms", plain.Ops}
	commits := delta("soar_sched_admissions_total") + delta("soar_sched_releases_total")
	m["sched.batch_mean"] = metric{Value: ratio(delta("soar_sched_batch_size_sum"), delta("soar_sched_batch_size_count")), Unit: "count"}
	m["sched.conflict_ratio"] = metric{Value: ratio(delta("soar_sched_conflicts_total"), delta("soar_sched_admissions_total")), Unit: "ratio"}
	m["ha.deltas_per_commit"] = metric{Value: ratio(delta("soar_ha_deltas_total"), commits), Unit: "ratio"}

	start, err := s.startMs()
	if err != nil {
		return nil, err
	}
	m["soar-naasd.start_ms"] = start
	if err := probeLayers(e, w, s.pool, m); err != nil {
		return nil, err
	}
	printBudget(w, plain.PlaceP50, m)
	s.finish(p)
	return p, nil
}

// startMs times exec → ready of the workload's daemon from an empty
// state: the median of three starts.
func (s *session) startMs() (metric, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		os.Remove(s.ckptFile)
		took, err := s.start()
		if err != nil {
			return metric{}, err
		}
		ms = append(ms, float64(took)/float64(time.Millisecond))
		if err := s.stop(); err != nil {
			return metric{}, err
		}
	}
	return metric{median(ms), "ms", len(ms)}, nil
}

// printBudget splits the measured Place median into the layers the
// in-process probes price, outermost first. Each row is a difference of
// two probes that nest — the client call contains the handler, the
// handler contains the windowed admission, and so on — so the rows sum
// to naas.client_place_us, and what is left of the measured median is
// what only two processes sharing a machine add: unattributed_us.
func printBudget(w workload, placeP50Ms float64, m map[string]metric) {
	v := func(name string) float64 { return m[name].Value }
	inner := "sched.place_window_us"
	if w.shardLevel >= 0 {
		inner = "ha.place_us_r2"
	}
	type row struct {
		name string
		us   float64
	}
	rows := []row{
		{"transport (naas.client_place_us − naas.handler_place_us)", v("naas.client_place_us") - v("naas.handler_place_us")},
		{"JSON (naas.handler_place_us − " + inner + ")", v("naas.handler_place_us") - v(inner)},
	}
	if w.shardLevel >= 0 {
		rows = append(rows, row{"journal + replication (ha.place_us_r2 − sched.place_window_us)", v("ha.place_us_r2") - v("sched.place_window_us")})
	}
	rows = append(rows,
		row{"batch wait (sched.place_window_us − sched.place_us)", v("sched.place_window_us") - v("sched.place_us")},
		row{"solve + commit (sched.place_us)", v("sched.place_us")},
	)
	total := placeP50Ms * 1000
	fmt.Printf("\nbudget of place_p50_ms on %s (%.0f us):\n", w.name, total)
	sum := 0.0
	for _, r := range rows {
		fmt.Printf("  %-68s %9.1f us %5.1f %%\n", r.name, r.us, 100*r.us/total)
		sum += r.us
	}
	un := total - sum
	fmt.Printf("  %-68s %9.1f us %5.1f %%\n", "unattributed_us", un, 100*un/total)
	m["unattributed_us"] = metric{Value: un, Unit: "us"}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
