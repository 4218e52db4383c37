package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"time"

	"soar/internal/naas"
	"soar/internal/obs"
)

// runTop polls a running soar-naasd and renders a terminal summary of
// the numbers an operator watches: admission rate and latency
// quantiles (from the soar_sched_place_seconds histogram), the median
// queue wait (soar_sched_queue_wait_seconds: submission to the start of
// the request's batch), batch coalescing, conflicts,
// degraded cluster runs and re-packer Φ recovered. It is a scrape
// consumer like any other — it reads GET /metrics and computes rates
// from successive snapshots, so what it shows is exactly what a
// Prometheus dashboard would. The one exception is recomp, the switches
// the newest solve recomputed: a per-solve fact, so it comes from the
// newest sched.solve span of GET /v1/trace.
func runTop(args []string) error {
	fs := newFlagSet("top")
	addr := fs.String("addr", "http://127.0.0.1:7070", "daemon base URL")
	every := fs.Duration("every", time.Second, "polling interval")
	count := fs.Int("n", 0, "number of polls before exiting (0 = until interrupted)")
	once := fs.Bool("once", false, "poll once and exit (shorthand for -n 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	polls := *count
	if *once {
		polls = 1
	}
	return topLoop(os.Stdout, *addr, *every, polls)
}

// topSnapshot is one scrape reduced to the dashboard's numbers.
type topSnapshot struct {
	admissions, releases, rejected, conflicts float64
	batches, batchSizeSum                     float64
	degraded, clusterRuns                     float64
	phiRecovered                              float64
	tenants, capUsed, capTotal                float64
	p50, p95, p99, queueWait                  float64
	ckptPause                                 float64 // median hold of the commit lock by a checkpoint
	recomp                                    string  // switches the newest solve recomputed; "-": no span
}

func scrapeTop(ctx context.Context, c *naas.Client) (*topSnapshot, error) {
	fams, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	byName := map[string]obs.TextFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	val := func(name string) float64 {
		var total float64
		for _, s := range byName[name].Samples {
			total += s.Value
		}
		return total
	}
	snap := &topSnapshot{
		admissions:   val("soar_sched_admissions_total"),
		releases:     val("soar_sched_releases_total"),
		rejected:     val("soar_sched_rejected_total"),
		conflicts:    val("soar_sched_conflicts_total"),
		batches:      val("soar_sched_batches_total"),
		degraded:     val("soar_cluster_degraded_total"),
		clusterRuns:  val("soar_cluster_runs_total"),
		phiRecovered: val("soar_sched_repack_phi_recovered"),
		tenants:      val("soar_sched_tenants"),
		capUsed:      val("soar_sched_capacity_used"),
		capTotal:     val("soar_sched_capacity_total"),
	}
	if f, ok := byName["soar_sched_batch_size"]; ok {
		for _, s := range f.Samples {
			if s.Name == "soar_sched_batch_size_sum" {
				snap.batchSizeSum = s.Value
			}
		}
	}
	// quantiles of one histogram family; NaN (rendered "-") when the
	// daemon does not export it.
	quantiles := func(name string, qs ...float64) ([]float64, error) {
		out := make([]float64, len(qs))
		f, ok := byName[name]
		if !ok {
			for i := range out {
				out[i] = math.NaN()
			}
			return out, nil
		}
		bounds, cum, _, err := obs.HistogramSeries(f, nil)
		if err != nil {
			return nil, fmt.Errorf("%s histogram: %w", name, err)
		}
		for i, q := range qs {
			out[i] = obs.HistogramQuantile(q, bounds, cum)
		}
		return out, nil
	}
	place, err := quantiles("soar_sched_place_seconds", 0.50, 0.95, 0.99)
	if err != nil {
		return nil, err
	}
	wait, err := quantiles("soar_sched_queue_wait_seconds", 0.50)
	if err != nil {
		return nil, err
	}
	pause, err := quantiles("soar_ckpt_snapshot_seconds", 0.50)
	if err != nil {
		return nil, err
	}
	snap.p50, snap.p95, snap.p99, snap.queueWait, snap.ckptPause = place[0], place[1], place[2], wait[0], pause[0]
	snap.recomp = "-"
	// A sharded front answers a bare /v1/trace with 400 (it needs
	// ?shard=K): the column then stays "-", like a histogram the daemon
	// does not export.
	if spans, err := c.Trace(ctx, 64); err == nil {
		for _, sp := range spans { // newest first
			if sp.Op == "sched.solve" {
				snap.recomp = strconv.FormatInt(sp.V2, 10)
				break
			}
		}
	}
	return snap, nil
}

func topLoop(w io.Writer, addr string, every time.Duration, polls int) error {
	if every <= 0 {
		every = time.Second
	}
	c := naas.NewClient(addr, nil)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(w, "%-8s %9s %8s %8s %8s %8s %8s %8s %8s %7s %9s %9s %7s\n",
		"time", "adm/s", "p50", "p95", "p99", "qwait50", "cksnap50", "tenants", "cap%", "batch", "degraded", "Φrec", "recomp")
	var prev *topSnapshot
	prevAt := time.Now()
	for i := 0; polls <= 0 || i < polls; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(every):
			}
		}
		snap, err := scrapeTop(ctx, c)
		if err != nil {
			return err
		}
		now := time.Now()
		rate := 0.0
		if prev != nil {
			if dt := now.Sub(prevAt).Seconds(); dt > 0 {
				rate = (snap.admissions - prev.admissions) / dt
			}
		}
		capPct := 0.0
		if snap.capTotal > 0 {
			capPct = 100 * snap.capUsed / snap.capTotal
		}
		meanBatch := 0.0
		if snap.batches > 0 {
			meanBatch = snap.batchSizeSum / snap.batches
		}
		fmt.Fprintf(w, "%-8s %9.1f %8s %8s %8s %8s %8s %8.0f %7.1f%% %7.2f %9.0f %9.3f %7s\n",
			now.Format("15:04:05"), rate,
			fmtSeconds(snap.p50), fmtSeconds(snap.p95), fmtSeconds(snap.p99), fmtSeconds(snap.queueWait),
			fmtSeconds(snap.ckptPause), snap.tenants, capPct, meanBatch, snap.degraded, snap.phiRecovered, snap.recomp)
		prev, prevAt = snap, now
	}
	return nil
}

// fmtSeconds renders a latency in the friendliest unit.
func fmtSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
