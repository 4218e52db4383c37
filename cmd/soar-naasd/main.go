// Command soar-naasd runs the SOAR Network-as-a-Service control plane:
// an HTTP daemon that leases in-network aggregation switches to tenants
// on a shared tree network (the NaaS offering the paper's introduction
// sketches).
//
//	soar-naasd -addr 127.0.0.1:7070 -topo bt -n 256 -capacity 4
//
// Admission is served by the internal/sched scheduler: arrivals that
// queue up during one solve form the next batch, solve on a pool of
// -workers incremental engines, and
// a background re-packer (-repack-every, -repack-moves) recovers the
// utilization that tenant departures fragment away.
//
// The control plane is crash-recoverable: with -checkpoint set, the
// daemon restores the lease ledger from the file on start, snapshots it
// every -checkpoint-every (atomic rename, never a torn file), on demand
// via POST /v1/checkpoint, and once more on graceful shutdown (SIGINT
// or SIGTERM). Every save is bounded by -checkpoint-timeout: a hung
// disk abandons the write (it finishes in the background if the disk
// recovers) instead of wedging the ticker or blocking shutdown.
//
// The daemon is also replication-aware (internal/ha):
//
//	soar-naasd -shard 1 -replicas 2        # replicated, sharded control plane
//
// With -shard L the fabric splits into per-pod shards rooted at tree
// level L, each served by one primary scheduler with -replicas warm
// standbys; failover is automatic and epoch-fenced, and clients keep
// talking to this one endpoint (admissions route to the shard their
// load lives in). GET /v1/shards shows membership.
//
// The daemon is observable in production terms: GET /metrics serves a
// Prometheus text scrape of every subsystem, GET /v1/trace dumps the
// newest per-stage spans, GET /v1/healthz and /v1/readyz are the
// probes a supervisor points at (readiness means restored and not
// draining — it flips before the final checkpoint so routing stops
// during drain), and -debug-addr starts a second listener serving
// net/http/pprof.
//
// Both modes serve one API (naas.Front); they differ only in which
// scheduler a per-scheduler route reads. ?shard=K names shard K (a
// single node is shard 0). Without it a single node answers from its
// scheduler, while a sharded daemon answers /metrics with its
// soar_ha_* families and the other per-scheduler routes with 400. The
// registry is the only record of what the control plane did: /v1/stats
// is the scheduler's snapshot alone.
// Tenant ids are global in both modes.
//
// API (JSON):
//
//	POST   /v1/tenants    {"load": [...], "k": 4} → lease
//	GET    /v1/tenants/{id}
//	DELETE /v1/tenants/{id}
//	GET    /v1/stats       (per scheduler: ?shard=K; sched.Stats)
//	GET    /v1/residual    (per scheduler; shard-local switch ids)
//	GET    /v1/healthz     (liveness)
//	GET    /v1/readyz      (readiness: restored + not draining)
//	GET    /v1/shards      (sharded only: membership)
//	GET    /v1/checkpoint  (per scheduler; octet-stream snapshot)
//	POST   /v1/checkpoint  (persist to -checkpoint path; 503 without one)
//	GET    /v1/trace?n=64  (per scheduler; newest spans, JSON)
//	GET    /metrics        (per scheduler; Prometheus text)
//
// Errors are JSON: 404 for an unknown tenant, 503 when the daemon
// cannot answer now (shutting down, a shard mid-failover), 400 for the
// client's own fault.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"soar/internal/ha"
	"soar/internal/naas"
	"soar/internal/sched"
	"soar/internal/topology"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	topo := flag.String("topo", "bt", "topology: bt or sf")
	topoFile := flag.String("topo-file", "", "load the network from a JSON file (overrides -topo; see topology.Encode)")
	n := flag.Int("n", 256, "network size")
	capacity := flag.Int("capacity", 4, "per-switch aggregation capacity (0 = unlimited)")
	seed := flag.Int64("seed", 1, "seed for random topologies")
	workers := flag.Int("workers", 0, "scheduler engine-pool size (0 = GOMAXPROCS)")
	repackEvery := flag.Duration("repack-every", time.Second, "background re-packing period (0 = off)")
	repackMoves := flag.Int("repack-moves", 8, "migration budget per re-packing round")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: restored on start if present, written periodically, on POST /v1/checkpoint and on shutdown (empty = off)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (0 = only on demand and shutdown)")
	ckptTimeout := flag.Duration("checkpoint-timeout", 10*time.Second, "deadline per checkpoint save; a write that outlives it is abandoned to the background instead of wedging the ticker or shutdown (0 = wait forever)")
	shardLevel := flag.Int("shard", -1, "replicated mode: shard the fabric into per-pod subtrees rooted at this tree level, one primary + -replicas standbys each (-1 = single-node)")
	replicas := flag.Int("replicas", 1, "warm standbys per shard (with -shard)")
	haHeartbeat := flag.Duration("ha-heartbeat", 250*time.Millisecond, "primary heartbeat period (with -shard)")
	haMiss := flag.Int("ha-miss", 4, "missed heartbeats before failover (with -shard)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this second address (empty = off; keep it private)")
	flag.Parse()

	tr, err := buildTree(*topoFile, *topo, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}

	schedCfg := sched.Config{
		Capacity: *capacity,
		Workers:  *workers,
		Repack:   sched.RepackConfig{Every: *repackEvery, MaxMoves: *repackMoves},
	}

	// SIGTERM is how process supervisors (systemd, Kubernetes) stop a
	// daemon; catching only os.Interrupt used to turn every supervised
	// stop into a crash that lost the final checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiling lives on its own listener so an operator can bind it to
	// localhost while tenants reach the control plane on a shared
	// address; it dies with the process, no graceful shutdown needed.
	if *debugAddr != "" {
		go func() {
			dsrv := &http.Server{
				Addr:              *debugAddr,
				Handler:           debugMux(),
				ReadHeaderTimeout: 5 * time.Second,
			}
			log.Printf("soar-naasd: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("soar-naasd: debug server: %v", err)
			}
		}()
	}

	var (
		front  *naas.Front
		sch    *sched.Scheduler // nil when sharded: shards replicate instead of checkpointing
		banner string
	)
	if *shardLevel < 0 {
		sch = sched.New(tr, schedCfg)
		defer sch.Close()
		front = naas.FromScheduler(sch)
		banner = fmt.Sprintf("%d switches (%s), listening on %s (metrics at /metrics)", tr.N(), *topo, *addr)
	} else {
		if *ckptPath != "" {
			log.Fatal("soar-naasd: -checkpoint is incompatible with -shard: shards replicate to standbys instead of a file")
		}
		cl, err := ha.NewCluster(tr, ha.Options{
			Level:      *shardLevel,
			Replicas:   *replicas,
			Heartbeat:  *haHeartbeat,
			MissBudget: *haMiss,
			Sched:      schedCfg,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("soar-naasd: %v", err)
		}
		defer cl.Close()
		front = naas.NewSharded(cl)
		banner = fmt.Sprintf("%d switches, %d shards × (1 primary + %d standbys), listening on %s",
			tr.N(), cl.Shards(), *replicas, *addr)
		for _, st := range cl.Status() {
			log.Printf("soar-naasd: shard %d: pod root %d, primary node %d at %s",
				st.Index, st.Root, st.PrimaryNode, st.PrimaryAddr)
		}
	}
	serve(ctx, front, sch, *addr, banner, *ckptPath, *ckptEvery, *ckptTimeout)
}

// buildTree resolves the topology flags to the network: -topo-file when
// given, else the -topo builder at size -n. Every bad value comes back
// as an error for main's one-line exit; the builders themselves panic
// on sizes they cannot build.
func buildTree(topoFile, topo string, n int, seed int64) (*topology.Tree, error) {
	switch {
	case topoFile != "":
		f, err := os.Open(topoFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.Decode(f)
	case topo == "bt":
		return topology.BT(n)
	case topo == "sf":
		if n < 1 {
			return nil, fmt.Errorf("-n %d: a scale-free network needs at least one switch", n)
		}
		return topology.ScaleFree(n, rand.New(rand.NewSource(seed))), nil
	default:
		return nil, fmt.Errorf("unknown -topo %q", topo)
	}
}

// serve is the one serve path of both modes: it restores sch from
// ckptPath if set, serves front on addr until ctx ends, drains
// (readiness flips before the final checkpoint) and saves at shutdown.
func serve(ctx context.Context, front *naas.Front, sch *sched.Scheduler, addr, banner, ckptPath string, ckptEvery, ckptTimeout time.Duration) {
	bounded := func() (int64, error) {
		sctx := context.Background()
		if ckptTimeout > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(sctx, ckptTimeout)
			defer cancel()
		}
		return saveCheckpointBounded(sctx, sch, ckptPath, writeCkptFile)
	}

	// Crash recovery: restore the control plane from the last checkpoint
	// before any traffic is served (Restore requires a quiescent
	// scheduler), then keep the file fresh — periodically, on demand via
	// POST /v1/checkpoint, and on shutdown. The front is not ready until
	// the restore lands.
	if ckptPath != "" {
		front.SetReady(false)
		if err := restoreCheckpoint(sch, ckptPath); err != nil {
			log.Fatalf("soar-naasd: restore %s: %v", ckptPath, err)
		}
		front.SetReady(true)
		front.SetCheckpointSaver(func() (string, int64, error) {
			size, err := bounded()
			return ckptPath, size, err
		})
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           front.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		<-ctx.Done()
		// Flip readiness first so supervisors stop routing, then drain
		// in-flight requests; the final checkpoint happens after the
		// listener closes, while /v1/readyz has long answered 503.
		front.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	if ckptPath != "" && ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := bounded(); err != nil {
						log.Printf("soar-naasd: periodic checkpoint: %v", err)
					}
				}
			}
		}()
	}

	fmt.Println("soar-naasd:", banner)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// The listener has drained: no admission can race the final snapshot
	// into staleness that matters. Checkpoint before Close.
	if ckptPath != "" {
		if size, err := bounded(); err != nil {
			log.Printf("soar-naasd: shutdown checkpoint: %v", err)
		} else {
			log.Printf("soar-naasd: checkpointed %d bytes to %s", size, ckptPath)
		}
	}
}

// debugMux routes the standard pprof surface explicitly rather than
// leaning on DefaultServeMux, so nothing else the process imports can
// sneak handlers onto the debug listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// restoreCheckpoint replays path into sch; a missing file is a fresh
// start, not an error.
func restoreCheckpoint(sch *sched.Scheduler, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sch.Restore(f); err != nil {
		return err
	}
	log.Printf("soar-naasd: restored %d tenants from %s", sch.Snapshot().Tenants, path)
	return nil
}

// ckptMu serializes savers: the periodic ticker, POST /v1/checkpoint
// and the shutdown save all share one temp file. Saves try the lock
// rather than queue on it, so a save wedged on a hung disk surfaces as
// errCkptBusy instead of a pileup of blocked goroutines.
var ckptMu sync.Mutex //soar:critical guards the checkpoint temp file

// errCkptBusy reports a save attempted while another holds the disk.
var errCkptBusy = errors.New("a checkpoint save is already in flight")

// ckptSink persists encoded checkpoint bytes durably; split out so the
// hung-disk regression test can inject a sink that never returns.
type ckptSink func(path string, data []byte) (int64, error)

// saveCheckpoint writes a checkpoint to path with no deadline, for
// callers that own their own timeout.
func saveCheckpoint(sch *sched.Scheduler, path string) (int64, error) {
	return saveCheckpointBounded(context.Background(), sch, path, writeCkptFile)
}

// saveCheckpointBounded snapshots sch in memory (fast, in-process) and
// hands the bytes to sink with ctx as the deadline. A sink that
// outlives ctx is abandoned: it keeps ckptMu until it returns — so no
// second writer can race it for the temp file and no goroutines pile
// up behind it — while the caller (the periodic ticker, the SIGTERM
// path) gets its error and moves on.
func saveCheckpointBounded(ctx context.Context, sch *sched.Scheduler, path string, sink ckptSink) (int64, error) {
	if !ckptMu.TryLock() {
		return 0, errCkptBusy
	}
	var buf bytes.Buffer
	if err := sch.Checkpoint(&buf); err != nil {
		ckptMu.Unlock()
		return 0, err
	}
	type result struct {
		size int64
		err  error
	}
	done := make(chan result, 1)
	go func() {
		defer ckptMu.Unlock()
		size, err := sink(path, buf.Bytes())
		done <- result{size, err}
	}()
	select {
	case r := <-done:
		return r.size, r.err
	case <-ctx.Done():
		return 0, fmt.Errorf("save to %s abandoned: %w", path, ctx.Err())
	}
}

// writeCkptFile lands data at path atomically: a crash while writing
// leaves the previous checkpoint intact, never a torn file.
func writeCkptFile(path string, data []byte) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return int64(len(data)), nil
}
