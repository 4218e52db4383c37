package sched

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soar/internal/chaos"
	"soar/internal/cluster"
	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/topology"
)

// TestChaosSoak is the PR's acceptance test: tenants churn against a
// scheduler that is repeatedly checkpointed, killed and restored from
// its own checkpoint, while a cluster protocol loop runs under injected
// transport faults. Throughout, every kill/restore cycle must pass a
// full conservation audit (no lease lost that the snapshot held, no
// switch double-committed), churners must only ever observe the benign
// errors the recovery contract allows (ErrClosed during a restart,
// ErrNotFound for a lease admitted after the snapshot), and every
// cluster answer — degraded or not — must match the serial solver
// exactly. Run it under -race; CI's chaos-soak job does.
func TestChaosSoak(t *testing.T) {
	rounds, churners := 10, 4
	if testing.Short() {
		rounds, churners = 4, 2
	}
	// SOAR_SOAK_ROUNDS scales the kill/restore cycles: nightly CI soaks
	// at 4× the per-push depth without a second copy of this test.
	if s := os.Getenv("SOAR_SOAK_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SOAR_SOAK_ROUNDS=%q: %v", s, err)
		}
		rounds = n
	}

	tr := topology.MustBT(64)
	cfg := Config{Capacity: 2, Workers: 4}

	// cur always points at the serving scheduler; kill/restore swaps it.
	var cur atomic.Pointer[Scheduler]
	cur.Store(New(tr, cfg))

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		placed   atomic.Int64 // successful admissions
		released atomic.Int64 // successful releases
		lostIDs  atomic.Int64 // leases the snapshot missed (benign)
		retried  atomic.Int64 // requests bounced off a closing scheduler
	)

	// Tenant churners: place and release against whatever scheduler is
	// current, treating the two recovery-contract errors as retries.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var ids []int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := cur.Load()
				if len(ids) > 12 || (len(ids) > 0 && rng.Intn(3) == 0) {
					id := ids[0]
					switch err := s.Release(id); {
					case err == nil:
						ids = ids[1:]
						released.Add(1)
					case errors.Is(err, ErrClosed):
						retried.Add(1) // restart in progress; retry on the successor
					case errors.Is(err, ErrNotFound):
						// The lease was admitted after the snapshot the
						// restore replayed: it is gone by contract.
						ids = ids[1:]
						lostIDs.Add(1)
					default:
						t.Errorf("churner release: %v", err)
						return
					}
					continue
				}
				loads := load.GenerateSparse(tr, load.PaperPowerLaw(), 3, rng)
				switch l, err := s.Place(loads, 1+rng.Intn(3)); {
				case err == nil:
					ids = append(ids, l.ID)
					placed.Add(1)
				case errors.Is(err, ErrClosed):
					retried.Add(1)
				default:
					t.Errorf("churner place: %v", err)
					return
				}
			}
		}(int64(100 + c))
	}

	// Cluster loop: the distributed protocol keeps answering — and
	// answering exactly — under transport faults, concurrently with the
	// control-plane kill/restore churn.
	clTree := topology.MustBT(16)
	clLoads := make([]int, clTree.N())
	for _, v := range clTree.Leaves() {
		clLoads[v] = 2
	}
	clWant := core.Solve(clTree, clLoads, nil, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		inj := chaos.New(chaos.Config{
			Seed:     7,
			DialFail: 0.05,
			Cut:      0.05,
			Reset:    0.05,
			Delay:    0.2,
			MaxDelay: time.Millisecond,
		})
		opts := &cluster.Options{
			Dial:         inj.Dial,
			WrapListener: inj.WrapListener,
			FrameTimeout: 2 * time.Second,
			Retry:        cluster.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := cluster.RunOrFallback(context.Background(), clTree, clLoads, nil, 2, opts)
			if err != nil {
				t.Errorf("cluster under chaos: %v", err)
				return
			}
			if res.Cost != clWant.Cost {
				t.Errorf("cluster cost %v under chaos, serial %v (degraded=%v)", res.Cost, clWant.Cost, res.Degraded)
				return
			}
		}
	}()

	// Kill/restore cycles: checkpoint the serving scheduler, close it
	// mid-churn, restore a fresh one from the bytes, audit, swap it in.
	for round := 0; round < rounds; round++ {
		time.Sleep(20 * time.Millisecond) // let churn build state
		s := cur.Load()
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("round %d checkpoint: %v", round, err)
		}
		s.Close() // the crash: everything after the snapshot dies with it
		next := New(tr, cfg)
		if err := next.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("round %d restore: %v", round, err)
		}
		if err := next.Audit(); err != nil {
			t.Fatalf("round %d: restored scheduler fails audit: %v", round, err)
		}
		cur.Store(next)
	}

	close(stop)
	wg.Wait()
	final := cur.Load()
	defer final.Close()
	if err := final.Audit(); err != nil {
		t.Fatalf("final audit: %v", err)
	}
	if placed.Load() == 0 || released.Load() == 0 {
		t.Fatalf("soak exercised nothing: %d placed, %d released", placed.Load(), released.Load())
	}
	t.Logf("soak: %d rounds, %d placed, %d released, %d lost to snapshots, %d bounced off restarts, %d surviving leases",
		rounds, placed.Load(), released.Load(), lostIDs.Load(), retried.Load(), final.Snapshot().Tenants)
}
