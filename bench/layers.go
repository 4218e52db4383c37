package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"soar/internal/cluster"
	"soar/internal/core"
	"soar/internal/ha"
	"soar/internal/load"
	"soar/internal/naas"
	"soar/internal/obs"
	"soar/internal/sched"
	"soar/internal/topology"
	"soar/internal/wire"
)

// This file prices each module in process, through its public
// functions only. The program under test carries no spans of its own
// yet, so the benchmark times the calls from outside; each probe is the
// median of up to probeCalls timed calls after a warm-up, cut short once
// it has used probeBudget (slow probes keep at least probeMin calls).

const (
	probeCalls  = 200
	probeMin    = 15
	probeWarm   = 5
	probeBudget = 300 * time.Millisecond
)

// wireReps is how many frames one sample of a wire probe codes.
const wireReps = 100

// daemonWindow is soar-naasd's default -window; the in-process stacks
// use it wherever the budget compares them with the daemon.
const daemonWindow = 200 * time.Microsecond

// layerNames lists every per-layer metric of the ledger, in the order
// the README explains them.
var layerNames = []string{
	"topology.build_ms", "soar-naasd.start_ms", "soar-naasd.ckpt_save_ms", "soar-naasd.cpu_ms_per_op", "load.gen_sparse_us",
	"core.solve_sparse_us", "core.incr_update_us", "core.memo_warm_us", "core.batch_us_per_inst", "core.allocs_per_solve",
	"core.solve_dense_us", "core.dp_cells_dense",
	"sched.place_us", "sched.release_us", "sched.place_window_us", "sched.batch_mean", "sched.conflict_ratio",
	"sched.allocs_per_place", "sched.repack_round_ms",
	"sched.ckpt_save_ms", "sched.ckpt_bytes", "sched.restore_ms", "sched.audit_ms",
	"wire.lease_delta_enc_us", "wire.lease_delta_dec_us", "wire.lease_delta_bytes", "wire.ckpt_tenant_enc_us", "wire.ckpt_tenant_dec_us",
	"naas.handler_place_us", "naas.handler_release_us", "naas.req_bytes_place", "naas.client_place_us", "naas.metrics_scrape_ms",
	"ha.route_us", "ha.place_us_r1", "ha.place_us_r2", "ha.deltas_per_commit", "ha.attach_ms", "ha.failover_gap_ms",
	"cluster.run_ms", "obs.write_text_us",
	"client.encode_us", "client.roundtrip_us", "client.decode_us", "bench.lateness_p95_us", "trace_overhead_pct", "unattributed_us",
}

// timed returns the median of fn's return values, which are the timed
// part of each call; fn may do untimed work around it.
func timed(unit time.Duration, unitName string, fn func() (time.Duration, error)) (metric, error) {
	for i := 0; i < probeWarm; i++ {
		if _, err := fn(); err != nil {
			return metric{}, err
		}
	}
	var v []float64
	for t0 := time.Now(); len(v) < probeCalls && (len(v) < probeMin || time.Since(t0) < probeBudget); {
		d, err := fn()
		if err != nil {
			return metric{}, err
		}
		v = append(v, float64(d)/float64(unit))
	}
	return metric{median(v), unitName, len(v)}, nil
}

func us(fn func() (time.Duration, error)) (metric, error) { return timed(time.Microsecond, "us", fn) }
func ms(fn func() (time.Duration, error)) (metric, error) { return timed(time.Millisecond, "ms", fn) }

// whole times one call of fn.
func whole(fn func()) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		fn()
		return time.Since(t0), nil
	}
}

// probes collects results and the first error, so the list of probes
// below reads as a list.
type probes struct {
	m   map[string]metric
	err error
}

func (p *probes) set(name string, mt metric, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("%s: %w", name, err)
	}
	p.m[name] = mt
}

func loadsOf(pool []tenant) [][]int {
	out := make([][]int, len(pool))
	for i := range pool {
		out[i] = pool[i].load
	}
	return out
}

// admitter is what a stack of the serving path offers a probe.
type admitter interface {
	Place(load []int, k int) (*sched.Lease, error)
	Release(id int64) error
}

// fill loads n leases through a, sixteen at a time so that a batching
// window is shared and not paid per lease.
func fill(a admitter, loads [][]int, k, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += len(errs) {
				if _, err := a.Place(loads[i%len(loads)], k); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// churn times Place (and Release) on one stream: each call places the
// next pool tenant, releases it again, and returns one of the two
// durations.
func churn(a admitter, loads [][]int, k int, release bool) func() (time.Duration, error) {
	i := 0
	return func() (time.Duration, error) {
		i++
		t0 := time.Now()
		l, err := a.Place(loads[i%len(loads)], k)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		err = a.Release(l.ID)
		if release {
			return time.Since(t1), err
		}
		return t1.Sub(t0), err
	}
}

// waitAttached blocks until every standby of cl has received its
// checkpoint stream.
func waitAttached(cl *ha.Cluster, replicas int) error {
	for t0 := time.Now(); time.Since(t0) < readyDeadline; time.Sleep(time.Millisecond) {
		var buf bytes.Buffer
		if err := cl.Registry().WriteText(&buf); err != nil {
			return err
		}
		fams, err := obs.ParseText(&buf)
		if err != nil {
			return err
		}
		if int(sample(fams, "soar_ha_ckpt_streams_total")) >= cl.Shards()*replicas {
			return nil
		}
	}
	return errors.New("standbys not attached in time")
}

// probeLayers fills m with every in-process per-layer metric. The core,
// wire, ha, cluster and checkpoint probes use fixed inputs drawn from
// the seed; the sched and naas probes use the workload's own tenants,
// budget, capacity and standing population, so that the budget of
// place_p50_ms is built from what that workload's daemon executes.
func probeLayers(e env, w workload, pool []tenant, m map[string]metric) error {
	p := &probes{m: m}
	tree := e.tree
	rng := rand.New(rand.NewSource(e.seed))
	sparseW, denseW, shardW := workloads[0], workloads[1], workloads[2]
	var fixed [3][][]int // the sparse, dense and sharded pools
	for i, x := range []workload{sparseW, denseW, shardW} {
		pl, err := makePool(tree, x, e.seed)
		if err != nil {
			return err
		}
		fixed[i] = loadsOf(pl)
	}
	sparse, dense, sharded := fixed[0], fixed[1], fixed[2]
	next := func(loads [][]int) func() []int {
		i := 0
		return func() []int { i++; return loads[i%len(loads)] }
	}

	// topology, load
	mt, err := ms(whole(func() { topology.MustBT(treeN).Fingerprint() }))
	p.set("topology.build_ms", mt, err)
	dist := load.PaperPowerLaw()
	mt, err = us(whole(func() { load.GenerateSparse(tree, dist, sparseW.racks, rng) }))
	p.set("load.gen_sparse_us", mt, err)

	// core
	ns := next(sparse)
	mt, err = us(whole(func() { core.Solve(tree, ns(), nil, sparseW.k) }))
	p.set("core.solve_sparse_us", mt, err)
	inc := core.NewIncremental(tree, sparse[0], nil, sparseW.k)
	blue := make([]bool, tree.N())
	mt, err = us(whole(func() { inc.SetLoads(ns()); inc.SolveInto(blue) }))
	p.set("core.incr_update_us", mt, err)
	memo := core.NewMemo(tree)
	for _, l := range sparse {
		core.SolveMemo(memo, l, nil, sparseW.k)
	}
	mt, err = us(whole(func() { core.SolveMemo(memo, ns(), nil, sparseW.k) }))
	p.set("core.memo_warm_us", mt, err)
	const batch = 16
	bs := core.NewBatchSolver(core.NewMemo(tree))
	blues, costs := make([][]bool, batch), make([]float64, batch)
	for i := range blues {
		blues[i] = make([]bool, tree.N())
	}
	off := 0
	mt, err = us(func() (time.Duration, error) {
		off = (off + batch) % (len(sparse) - batch)
		t0 := time.Now()
		bs.Solve(sparse[off:off+batch], nil, sparseW.k, blues, costs)
		return time.Since(t0) / batch, nil
	})
	p.set("core.batch_us_per_inst", mt, err)
	p.set("core.allocs_per_solve", metric{Value: testing.AllocsPerRun(10, func() { core.Solve(tree, sparse[0], nil, sparseW.k) }), Unit: "count"}, nil)
	nd := next(dense)
	mt, err = us(whole(func() { core.Solve(tree, nd(), nil, denseW.k) }))
	p.set("core.solve_dense_us", mt, err)
	tb := core.Gather(tree, dense[0], nil, denseW.k)
	cells := 0
	for v := 0; v < tree.N(); v++ {
		cells += (tree.Depth(v) + 1) * (tb.Cap(v) + 1)
	}
	p.set("core.dp_cells_dense", metric{Value: float64(cells), Unit: "count"}, nil)

	// wire: one frame of each kind that carries a lease.
	delta := &wire.LeaseDelta{Shard: 1, Epoch: 1, Seq: 1, Op: wire.DeltaPlace, ID: 1, K: uint32(sparseW.k)}
	ten := &wire.CkptTenant{ID: 1, K: uint32(sparseW.k)}
	res := core.Solve(tree, sparse[0], nil, sparseW.k)
	for v, b := range res.Blue {
		if b {
			delta.Blue, ten.Blue = append(delta.Blue, uint32(v)), append(ten.Blue, uint32(v))
		}
	}
	for v, n := range sparse[0] {
		if n > 0 {
			delta.LoadV, delta.LoadN = append(delta.LoadV, uint32(v)), append(delta.LoadN, uint32(n))
		}
	}
	ten.LoadV, ten.LoadN = delta.LoadV, delta.LoadN
	for _, x := range []struct {
		name string
		msg  wire.Message
	}{{"wire.lease_delta", delta}, {"wire.ckpt_tenant", ten}} {
		// A frame takes a fraction of a microsecond, less than reading the
		// clock twice: time wireReps of them per sample.
		var buf bytes.Buffer
		mt, err = us(func() (time.Duration, error) {
			var err error
			t0 := time.Now()
			for i := 0; i < wireReps && err == nil; i++ {
				buf.Reset()
				err = wire.Write(&buf, x.msg)
			}
			return time.Since(t0) / wireReps, err
		})
		p.set(x.name+"_enc_us", mt, err)
		frame := append([]byte(nil), buf.Bytes()...)
		if x.msg == wire.Message(delta) {
			p.set("wire.lease_delta_bytes", metric{Value: float64(len(frame)), Unit: "B"}, nil)
		}
		rd := bytes.NewReader(frame)
		mt, err = us(func() (time.Duration, error) {
			var err error
			t0 := time.Now()
			for i := 0; i < wireReps && err == nil; i++ {
				rd.Reset(frame)
				_, err = wire.Read(rd)
			}
			return time.Since(t0) / wireReps, err
		})
		p.set(x.name+"_dec_us", mt, err)
	}

	// sched and naas, on the workload's own stack.
	if err := probeServing(p, tree, w, loadsOf(pool), pool); err != nil {
		return err
	}

	// sched: a re-packing round over 1000 leases, and the checkpoint
	// round trip over 5000.
	rp := sched.New(tree, sched.Config{Capacity: sparseW.capacity})
	if err := fill(rp, sparse, sparseW.k, sparseW.standing); err != nil {
		return err
	}
	mt, err = ms(func() (time.Duration, error) {
		t0 := time.Now()
		_, _, err := rp.RepackNow(8)
		return time.Since(t0), err
	})
	p.set("sched.repack_round_ms", mt, err)
	rp.Close()
	ckptW := workloads[3]
	ck := sched.New(tree, sched.Config{Capacity: ckptW.capacity})
	if err := fill(ck, sparse, ckptW.k, ckptW.standing); err != nil {
		return err
	}
	var snap bytes.Buffer
	mt, err = ms(func() (time.Duration, error) {
		snap.Reset()
		t0 := time.Now()
		err := ck.Checkpoint(&snap)
		return time.Since(t0), err
	})
	p.set("sched.ckpt_save_ms", mt, err)
	p.set("sched.ckpt_bytes", metric{Value: float64(snap.Len()), Unit: "B"}, nil)
	mt, err = ms(func() (time.Duration, error) {
		fresh := sched.New(tree, sched.Config{Capacity: ckptW.capacity})
		defer fresh.Close()
		t0 := time.Now()
		err := fresh.Restore(bytes.NewReader(snap.Bytes()))
		return time.Since(t0), err
	})
	p.set("sched.restore_ms", mt, err)
	mt, err = ms(func() (time.Duration, error) {
		t0 := time.Now()
		err := ck.Audit()
		return time.Since(t0), err
	})
	p.set("sched.audit_ms", mt, err)
	var page bytes.Buffer
	mt, err = us(func() (time.Duration, error) {
		page.Reset()
		t0 := time.Now()
		err := ck.Registry().WriteText(&page)
		return time.Since(t0), err
	})
	p.set("obs.write_text_us", mt, err)
	ck.Close()

	// ha
	part, err := ha.Partition(tree, shardW.shardLevel)
	if err != nil {
		return err
	}
	nh := next(sharded)
	mt, err = us(func() (time.Duration, error) {
		l := nh()
		t0 := time.Now()
		s, err := part.ShardOf(l)
		if err == nil {
			part.Localize(s, l)
		}
		return time.Since(t0), err
	})
	p.set("ha.route_us", mt, err)
	if w.shardLevel < 0 { // on a sharded workload probeServing has measured these on its own cluster
		for r := 1; r <= 2; r++ {
			cl, err := newCluster(tree, shardW, r, sharded)
			if err != nil {
				return err
			}
			mt, err = us(churn(cl, sharded, shardW.k, false))
			p.set(fmt.Sprintf("ha.place_us_r%d", r), mt, err)
			cl.Close()
		}
	}
	mt, err = ms(func() (time.Duration, error) {
		t0 := time.Now()
		cl, err := ha.NewCluster(tree, haOptions(shardW, shardW.replicas))
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		err = waitAttached(cl, shardW.replicas)
		return time.Since(t0), err
	})
	p.set("ha.attach_ms", mt, err)
	// Real 20 ms heartbeats on a shared host: a stalled core can fail a
	// standby over under the probe's feet, so an attempt that errs is
	// repeated before it counts.
	for try := 0; try < 3; try++ {
		if mt, err = failoverGap(tree, shardW, part, sharded); err == nil {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: ha.failover_gap_ms, attempt %d: %v\n", try+1, err)
	}
	p.set("ha.failover_gap_ms", mt, err)

	// cluster: one distributed run on BT(256) over loopback TCP.
	small := topology.MustBT(256)
	sl := load.GenerateSparse(small, dist, sparseW.racks, rng)
	mt, err = ms(func() (time.Duration, error) {
		t0 := time.Now()
		_, err := cluster.Run(context.Background(), small, sl, nil, sparseW.k)
		return time.Since(t0), err
	})
	p.set("cluster.run_ms", mt, err)
	return p.err
}

func haOptions(w workload, replicas int) ha.Options {
	return ha.Options{
		Level: w.shardLevel, Replicas: replicas,
		Sched: sched.Config{Capacity: w.capacity, Window: daemonWindow},
	}
}

// newCluster builds the sharded stack with its standbys attached and
// the workload's standing population loaded.
func newCluster(tree *topology.Tree, w workload, replicas int, loads [][]int) (*ha.Cluster, error) {
	cl, err := ha.NewCluster(tree, haOptions(w, replicas))
	if err != nil {
		return nil, err
	}
	if err := errors.Join(waitAttached(cl, replicas), fill(cl, loads, w.k, w.standing)); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// probeServing prices the layers of one admission on the workload's own
// stack: the scheduler alone (service time at Window=0, then with the
// daemon's batching window), the HTTP handler on a recorder, and the
// naas client against an in-process server on loopback. On a sharded
// workload the scheduler is one pod's — the tree a shard runs — and the
// handler fronts a replicated cluster, which also yields ha.place_us_*.
func probeServing(p *probes, tree *topology.Tree, w workload, loads [][]int, pool []tenant) error {
	schedTree, schedLoads, standing := tree, loads, w.standing
	cfg := sched.Config{Capacity: w.capacity}
	if w.shardLevel >= 0 {
		part, err := ha.Partition(tree, w.shardLevel)
		if err != nil {
			return err
		}
		// Pods of a complete tree are congruent, so every tenant's local
		// vector is a valid load on pod 0's tree.
		pod := part.Shards[0].Pod
		schedTree, standing = pod.Tree, w.standing/len(part.Shards)
		cfg = sched.Config{Capacities: make([]int, pod.Tree.N())}
		for lv := pod.Spine; lv < pod.Tree.N(); lv++ {
			cfg.Capacities[lv] = w.capacity
		}
		schedLoads = make([][]int, len(loads))
		for i, l := range loads {
			s, err := part.ShardOf(l)
			if err != nil {
				return err
			}
			schedLoads[i] = part.Localize(s, l)
		}
	}
	bare := sched.New(schedTree, cfg)
	defer bare.Close()
	if err := fill(bare, schedLoads, w.k, standing); err != nil {
		return err
	}
	mt, err := us(churn(bare, schedLoads, w.k, false))
	p.set("sched.place_us", mt, err)
	mt, err = us(churn(bare, schedLoads, w.k, true))
	p.set("sched.release_us", mt, err)
	var slot sched.Lease
	i := 0
	p.set("sched.allocs_per_place", metric{Value: testing.AllocsPerRun(50, func() {
		i++
		if bare.PlaceInto(schedLoads[i%len(schedLoads)], w.k, &slot) == nil {
			bare.Release(slot.ID)
		}
	}), Unit: "count"}, nil)

	cfg.Window = daemonWindow
	windowed := sched.New(schedTree, cfg)
	defer windowed.Close()
	if err := fill(windowed, schedLoads, w.k, standing); err != nil {
		return err
	}
	mt, err = us(churn(windowed, schedLoads, w.k, false))
	p.set("sched.place_window_us", mt, err)

	var handler http.Handler
	if w.shardLevel < 0 {
		handler = naas.FromScheduler(windowed).Handler()
	} else {
		for r := 1; r <= w.replicas; r++ {
			cl, err := newCluster(tree, w, r, loads)
			if err != nil {
				return err
			}
			mt, err = us(churn(cl, loads, w.k, false))
			p.set(fmt.Sprintf("ha.place_us_r%d", r), mt, err)
			if r < w.replicas {
				cl.Close()
				continue
			}
			defer cl.Close()
			handler = naas.NewSharded(cl).Handler()
		}
	}

	bytesSum := 0
	for _, t := range pool {
		bytesSum += len(t.body)
	}
	p.set("naas.req_bytes_place", metric{Value: float64(bytesSum) / float64(len(pool)), Unit: "B"}, nil)
	serve := func(release bool) func() (time.Duration, error) {
		i := 0
		return func() (time.Duration, error) {
			i++
			req := httptest.NewRequest(http.MethodPost, "/v1/tenants", bytes.NewReader(pool[i%len(pool)].body))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			handler.ServeHTTP(rec, req)
			t1 := time.Now()
			var l lease
			if err := decodeStatus(rec, http.StatusCreated, &l); err != nil {
				return 0, err
			}
			req = httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/v1/tenants/%d", l.ID), nil)
			rec = httptest.NewRecorder()
			t2 := time.Now()
			handler.ServeHTTP(rec, req)
			t3 := time.Now()
			if err := decodeStatus(rec, http.StatusNoContent, nil); err != nil {
				return 0, err
			}
			if release {
				return t3.Sub(t2), nil
			}
			return t1.Sub(t0), nil
		}
	}
	mt, err = us(serve(false))
	p.set("naas.handler_place_us", mt, err)
	mt, err = us(serve(true))
	p.set("naas.handler_release_us", mt, err)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	nc := naas.NewClient("http://"+ln.Addr().String(), hc)
	ctx := context.Background()
	j := 0
	mt, err = us(func() (time.Duration, error) {
		j++
		t0 := time.Now()
		l, err := nc.Place(ctx, loads[j%len(loads)], w.k)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, nc.Release(ctx, l.ID)
	})
	p.set("naas.client_place_us", mt, err)
	mt, err = ms(func() (time.Duration, error) {
		t0 := time.Now()
		_, err := nc.Metrics(ctx)
		return time.Since(t0), err
	})
	p.set("naas.metrics_scrape_ms", mt, err)
	return nil
}

func decodeStatus(rec *httptest.ResponseRecorder, want int, out any) error {
	if rec.Code != want {
		return fmt.Errorf("handler answered %d, want %d: %s", rec.Code, want, rec.Body.Bytes())
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// failoverGap crashes the primary of five shards in turn and times
// CrashPrimary → the first Place that shard accepts again. It runs on
// real timers (20 ms heartbeat, 3 misses), so it is informational.
func failoverGap(tree *topology.Tree, w workload, part *ha.Partitioning, loads [][]int) (metric, error) {
	opts := haOptions(w, w.replicas)
	opts.Heartbeat, opts.MissBudget = 20*time.Millisecond, 3
	cl, err := ha.NewCluster(tree, opts)
	if err != nil {
		return metric{}, err
	}
	defer cl.Close()
	if err := waitAttached(cl, w.replicas); err != nil {
		return metric{}, err
	}
	var gaps []float64
	for s := 0; s < 5; s++ {
		var l []int
		for _, c := range loads {
			if at, err := part.ShardOf(c); err == nil && at == s {
				l = c
				break
			}
		}
		if l == nil {
			return metric{}, fmt.Errorf("no pool tenant lives in shard %d", s)
		}
		t0 := time.Now()
		cl.CrashPrimary(s)
		got, err := cl.Place(l, w.k) // routing retries across the failover
		if err != nil {
			return metric{}, err
		}
		gaps = append(gaps, float64(time.Since(t0))/float64(time.Millisecond))
		if err := cl.Release(got.ID); err != nil {
			return metric{}, err
		}
	}
	return metric{median(gaps), "ms", len(gaps)}, nil
}
