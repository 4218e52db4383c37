package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// mutexSerialService replicates the pre-scheduler naas.Service serving
// path exactly: one big lock, a fresh availability vector and a
// from-scratch core.Solve per admission. It is the baseline the
// scheduler's throughput is measured against.
type mutexSerialService struct {
	mu       sync.Mutex
	t        *topology.Tree
	residual []int
	leases   map[int64][]int
	nextID   int64
}

func newMutexSerialService(t *topology.Tree, capacity int) *mutexSerialService {
	s := &mutexSerialService{t: t, residual: make([]int, t.N()), leases: make(map[int64][]int)}
	for v := range s.residual {
		s.residual[v] = capacity
	}
	return s
}

func (s *mutexSerialService) place(loads []int, k int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	avail := make([]bool, s.t.N())
	for v, c := range s.residual {
		avail[v] = c > 0
	}
	res := core.Solve(s.t, loads, avail, k)
	_ = reduce.Utilization(s.t, loads, make([]bool, s.t.N())) // the all-red normalizer every lease reports
	id := s.nextID
	s.nextID++
	var blue []int
	for v, b := range res.Blue {
		if b {
			s.residual[v]--
			blue = append(blue, v)
		}
	}
	s.leases[id] = blue
	return id
}

func (s *mutexSerialService) release(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.leases[id] {
		s.residual[v]++
	}
	delete(s.leases, id)
}

// benchTenants pre-draws a pool of sparse tenant load vectors (each
// tenant occupies `racks` leaves of the tree) so the measured loop does
// no generation work.
func benchTenants(tr *topology.Tree, n, racks int) [][]int {
	rng := rand.New(rand.NewSource(17))
	pool := make([][]int, n)
	for i := range pool {
		pool[i] = load.GenerateSparse(tr, load.PaperPowerLaw(), racks, rng)
	}
	return pool
}

// BenchmarkScheduler measures a parallel Place/Release mix at the
// paper's largest evaluation network, BT(2048), with an 8-worker engine
// pool, against the mutex-serialized from-scratch baseline (the
// pre-scheduler naas.Service path). Tenants are sparse (8 racks each),
// the regime a shared tree actually serves — and the one the patched
// incremental engines exploit: expect several times the baseline's
// throughput with 0 allocs per steady-state admission, on top of
// whatever multi-core fan-out adds.
func BenchmarkScheduler(b *testing.B) {
	tr := topology.MustBT(2048)
	const (
		k        = 8
		capacity = 64
		racks    = 8
		clients  = 8
	)
	pool := benchTenants(tr, 256, racks)

	b.Run("scheduler/workers=8", func(b *testing.B) {
		s := New(tr, Config{Capacity: capacity, Workers: 8})
		defer s.Close()
		var next int64
		b.ReportAllocs()
		b.SetParallelism(clients)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var lease Lease
			i := int(nextSeed(&next)) * 31
			for pb.Next() {
				if err := s.PlaceInto(pool[i%len(pool)], k, &lease); err != nil {
					b.Error(err)
					return
				}
				if err := s.Release(lease.ID); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})

	b.Run("baseline/mutex-serial", func(b *testing.B) {
		s := newMutexSerialService(tr, capacity)
		var next int64
		b.ReportAllocs()
		b.SetParallelism(clients)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(nextSeed(&next)) * 31
			for pb.Next() {
				id := s.place(pool[i%len(pool)], k)
				s.release(id)
				i++
			}
		})
	})
}

var seedMu sync.Mutex

func nextSeed(next *int64) int64 {
	seedMu.Lock()
	defer seedMu.Unlock()
	*next++
	return *next
}

// BenchmarkSchedulerSparse is a single-stream churn of sparse tenants
// (8 racks each on BT(2048), k=32 — budgets large enough that the
// per-admission DP recompute dominates). The sub-benchmark keeps the
// name it had beside the deleted memoized scheduler ("cold") so the
// BENCH_sched.json trajectory and CI's baseline stay comparable.
func BenchmarkSchedulerSparse(b *testing.B) {
	tr := topology.MustBT(2048)
	const (
		k        = 32
		capacity = 64
		racks    = 8
	)
	pool := benchTenants(tr, 256, racks)
	// The explicit k level keeps the name three segments deep, same as
	// the Fig. 9 grid, so CI's bench-gate pattern addresses it.
	b.Run(fmt.Sprintf("cold/k=%d", k), func(b *testing.B) {
		s := New(tr, Config{Capacity: capacity, Workers: 1})
		defer s.Close()
		var lease Lease
		// Warm: one full cycle through the tenant pool, so the run
		// measures the steady state, not the first-touch allocations.
		for _, loads := range pool {
			if err := s.PlaceInto(loads, k, &lease); err != nil {
				b.Fatal(err)
			}
			if err := s.Release(lease.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.PlaceInto(pool[i%len(pool)], k, &lease); err != nil {
				b.Fatal(err)
			}
			if err := s.Release(lease.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedulerSteadyState isolates the single-stream admission
// cost (one tenant in flight at a time): the floor the batching and
// engine pool build on, and the configuration the 0-alloc claim is
// strictest in.
func BenchmarkSchedulerSteadyState(b *testing.B) {
	tr := topology.MustBT(2048)
	pool := benchTenants(tr, 256, 16)
	s := New(tr, Config{Capacity: 64, Workers: 1})
	defer s.Close()
	var lease Lease
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PlaceInto(pool[i%len(pool)], 8, &lease); err != nil {
			b.Fatal(err)
		}
		if err := s.Release(lease.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerDense/lone is dense_bigk's admission in isolation:
// one dense tenant (every rack loaded) in flight at a time on BT(2048)
// with k = 32, so each Place is a lone batch whose solve re-points the
// dispatcher's engine at every switch and spreads the flush over the
// idle worker pool. The pool is the default, GOMAXPROCS workers. Like
// the steady state, it must allocate nothing.
func BenchmarkSchedulerDense(b *testing.B) {
	b.Run("lone", func(b *testing.B) {
		const k, capacity = 32, 128
		tr := topology.MustBT(2048)
		rng := rand.New(rand.NewSource(23))
		pool := make([][]int, 8)
		for i := range pool {
			pool[i] = load.Generate(tr, load.PaperPowerLaw(), load.LeavesOnly, rng)
		}
		s := New(tr, Config{Capacity: capacity})
		defer s.Close()
		var lease Lease
		cycle := func(i int) {
			if err := s.PlaceInto(pool[i%len(pool)], k, &lease); err != nil {
				b.Fatal(err)
			}
			if err := s.Release(lease.ID); err != nil {
				b.Fatal(err)
			}
		}
		for i := range pool { // warm: engines built, lanes sized, leases pooled
			cycle(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(i)
		}
	})
}

// BenchmarkRepackRound measures one background re-packing round over a
// fragmented BT(2048) tenant population with migration budget 16.
func BenchmarkRepackRound(b *testing.B) {
	tr := topology.MustBT(2048)
	pool := benchTenants(tr, 128, 16)
	s := New(tr, Config{Capacity: 2, Workers: 1})
	defer s.Close()
	var ids []int64
	for _, loads := range pool {
		lease, err := s.Place(loads, 8)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, lease.ID)
	}
	for i, id := range ids {
		if i%2 == 0 {
			if err := s.Release(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.RepackNow(16); err != nil {
			b.Fatal(err)
		}
	}
}

// standingCkpts caches, per tenant count, the checkpoint of a BT(2048)
// scheduler holding that many standing 8-rack leases — the population
// BenchmarkCheckpoint and BenchmarkRestore measure against. Admitting
// 5000 tenants takes about a second; the benchmark framework re-enters
// each sub-benchmark several times.
var standingCkpts = map[int][]byte{}

func standingCheckpoint(b *testing.B, tr *topology.Tree, tenants int) []byte {
	b.Helper()
	if ckpt, ok := standingCkpts[tenants]; ok {
		return ckpt
	}
	pool := benchTenants(tr, 256, 8)
	s := New(tr, Config{Workers: 1})
	defer s.Close()
	var lease Lease
	for i := 0; i < tenants; i++ {
		if err := s.PlaceInto(pool[i%len(pool)], 8, &lease); err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	standingCkpts[tenants] = buf.Bytes()
	return buf.Bytes()
}

// BenchmarkCheckpoint measures one checkpoint save — the under-lock
// snapshot of the lease table plus its encoding — of a serving
// scheduler on BT(2048), against the number of standing leases. MB/s is
// of the stream written.
func BenchmarkCheckpoint(b *testing.B) {
	tr := topology.MustBT(2048)
	for _, tenants := range []int{500, 5000} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			ckpt := standingCheckpoint(b, tr, tenants)
			s := New(tr, Config{Workers: 1})
			defer s.Close()
			if err := s.Restore(bytes.NewReader(ckpt)); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			buf.Grow(len(ckpt))
			b.ReportAllocs()
			b.SetBytes(int64(len(ckpt)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := s.Checkpoint(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestore measures recovery: decoding, validating and
// installing a checkpoint into a fresh scheduler (whose construction
// is not timed). MB/s is of the stream read.
func BenchmarkRestore(b *testing.B) {
	tr := topology.MustBT(2048)
	for _, tenants := range []int{500, 5000} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			ckpt := standingCheckpoint(b, tr, tenants)
			b.ReportAllocs()
			b.SetBytes(int64(len(ckpt)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := New(tr, Config{Workers: 1})
				b.StartTimer()
				if err := s.Restore(bytes.NewReader(ckpt)); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
	}
}
