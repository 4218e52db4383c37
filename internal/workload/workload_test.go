package workload

import (
	"math/rand"
	"testing"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/placement"
	"soar/internal/reduce"
	"soar/internal/topology"
)

func TestCapacityBookkeeping(t *testing.T) {
	tr := topology.CompleteBinary(3)
	a := NewAllocator(tr, core.Strategy{}, 2, 2)
	rng := rand.New(rand.NewSource(1))
	loads := load.Generate(tr, load.PaperUniform(), load.LeavesOnly, rng)
	blue, _ := a.Handle(loads)
	for v, b := range blue {
		want := 2
		if b {
			want = 1
		}
		if a.Residual(v) != want {
			t.Fatalf("switch %d residual %d, want %d", v, a.Residual(v), want)
		}
	}
}

func TestExhaustedSwitchesBecomeUnavailable(t *testing.T) {
	tr := topology.CompleteBinary(3)
	a := NewAllocator(tr, core.Strategy{}, 7, 1) // enough budget for all-blue
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	blue, _ := a.Handle(loads)
	if got := reduce.CountBlue(blue); got != 7 {
		t.Fatalf("first workload used %d switches, want all 7", got)
	}
	// All capacity is now spent: the next workload must run all-red.
	blue2, phi2 := a.Handle(loads)
	if got := reduce.CountBlue(blue2); got != 0 {
		t.Fatalf("second workload used %d switches, want 0", got)
	}
	if phi2 != 51 {
		t.Fatalf("second workload φ=%v, want all-red 51", phi2)
	}
}

func TestAvailabilityVector(t *testing.T) {
	tr := topology.Path(3)
	a := NewAllocator(tr, placement.Top{}, 1, 1)
	a.SetCapacity(1, 0)
	avail := a.Available()
	if avail[1] || !avail[0] || !avail[2] {
		t.Fatalf("availability %v, want switch 1 exhausted", avail)
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	tr := topology.CompleteBinary(3)
	a := NewAllocator(tr, core.Strategy{}, 2, 0) // unlimited
	loads := []int{0, 0, 0, 2, 6, 5, 4}
	for i := 0; i < 50; i++ {
		_, phi := a.Handle(loads)
		if phi != 20 {
			t.Fatalf("round %d: φ=%v, want the offline optimum 20 every time", i, phi)
		}
	}
}

func TestRunCumulativeRatioConvergesTowardAllRed(t *testing.T) {
	// With bounded capacity, late workloads find no aggregation switches,
	// so the cumulative ratio must climb toward 1 (paper Sec. 5.2).
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(7))
	seq := NewSequence(tr, rng)
	workloads := make([][]int, 40)
	for i := range workloads {
		workloads[i] = seq.Next()
	}
	a := NewAllocator(tr, core.Strategy{}, 8, 2)
	res := Run(a, workloads)
	if len(res.CumulativeRatio) != 40 {
		t.Fatalf("got %d ratios", len(res.CumulativeRatio))
	}
	early, late := res.CumulativeRatio[4], res.CumulativeRatio[39]
	if late <= early {
		t.Fatalf("ratio should degrade as capacity exhausts: early %v, late %v", early, late)
	}
	if late > 1+1e-9 {
		t.Fatalf("ratio %v exceeds all-red", late)
	}
	for i, r := range res.CumulativeRatio {
		if r <= 0 || r > 1+1e-9 {
			t.Fatalf("ratio[%d]=%v out of (0,1]", i, r)
		}
	}
}

func TestSOARBeatsBaselinesOnline(t *testing.T) {
	// The paper is explicit that SOAR is not provably optimal online, but
	// across a capacity-constrained run it should not lose to the simple
	// baselines on cumulative utilization.
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(11))
	seq := NewSequence(tr, rng)
	workloads := make([][]int, 24)
	for i := range workloads {
		workloads[i] = seq.Next()
	}
	final := func(s placement.Strategy) float64 {
		a := NewAllocator(tr, s, 4, 3)
		res := Run(a, workloads)
		return res.CumulativeRatio[len(workloads)-1]
	}
	soar := final(core.Strategy{})
	for _, s := range []placement.Strategy{placement.Top{}, placement.Max{}, placement.Level{}} {
		if v := final(s); soar > v+0.02 {
			t.Fatalf("online SOAR ratio %v clearly worse than %s ratio %v", soar, s.Name(), v)
		}
	}
}

func TestSequence5050Mix(t *testing.T) {
	tr := topology.MustBT(256)
	rng := rand.New(rand.NewSource(3))
	seq := NewSequence(tr, rng)
	// Power-law draws can produce loads > 6; uniform cannot. Over many
	// draws we should see both distributions.
	sawHigh, sawUniformOnly := 0, 0
	for i := 0; i < 40; i++ {
		l := seq.Next()
		high := false
		for _, x := range l {
			if x > 6 {
				high = true
				break
			}
		}
		if high {
			sawHigh++
		} else {
			sawUniformOnly++
		}
	}
	if sawHigh == 0 || sawUniformOnly == 0 {
		t.Fatalf("sequence not mixing: %d power-law-ish, %d uniform-ish", sawHigh, sawUniformOnly)
	}
}

// fromScratch is SOAR re-solved per workload by core.Solve. Not being
// core.Strategy, it keeps NewAllocator on the plain Place path — the
// model the incremental engine behind NewAllocator(core.Strategy{}) must
// reproduce.
type fromScratch struct{}

func (fromScratch) Name() string { return "soar" }

func (fromScratch) Place(t *topology.Tree, loads []int, avail []bool, k int) []bool {
	return core.Solve(t, loads, avail, k).Blue
}

// requireSameStep fails unless the two allocators answered one workload
// identically: same placement, exactly the same φ, same residuals.
func requireSameStep(t *testing.T, i int, inc, full *Allocator, iBlue, fBlue []bool, iPhi, fPhi float64) {
	t.Helper()
	if fPhi != iPhi {
		t.Fatalf("workload %d: incremental φ=%v, from-scratch φ=%v", i, iPhi, fPhi)
	}
	for v := range fBlue {
		if fBlue[v] != iBlue[v] {
			t.Fatalf("workload %d: placements differ at switch %d", i, v)
		}
		if full.Residual(v) != inc.Residual(v) {
			t.Fatalf("workload %d: residual differs at switch %d: %d vs %d",
				i, v, full.Residual(v), inc.Residual(v))
		}
	}
}

func TestIncrementalAllocatorMatchesFromScratch(t *testing.T) {
	// NewAllocator(core.Strategy{}) solves on the incremental engine; it
	// must be observationally identical to re-solving every workload
	// from scratch: same placements, exactly the same per-workload φ,
	// same residual capacities — across a whole online sequence
	// including the capacity-exhaustion tail.
	tr := topology.MustBT(64)
	rng := rand.New(rand.NewSource(21))
	seq := NewSequence(tr, rng)
	full := NewAllocator(tr, fromScratch{}, 8, 2)
	inc := NewAllocator(tr, core.Strategy{}, 8, 2)
	for i := 0; i < 24; i++ {
		loads := seq.Next()
		fBlue, fPhi := full.Handle(loads)
		iBlue, iPhi := inc.Handle(loads)
		requireSameStep(t, i, inc, full, iBlue, fBlue, iPhi, fPhi)
	}
	exhausted := 0
	for v := 0; v < tr.N(); v++ {
		if inc.Residual(v) == 0 {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("no switch ran out of capacity; the exhaustion tail was not exercised")
	}
}

func TestIncrementalAllocatorBudgetChange(t *testing.T) {
	// HandleWithBudget changes k mid-stream; the incremental allocator
	// rebuilds its engine and must keep matching the from-scratch one,
	// through repeated budgets, k = 0 and the return to the first k.
	tr := topology.MustBT(32)
	rng := rand.New(rand.NewSource(5))
	seq := NewSequence(tr, rng)
	full := NewAllocator(tr, fromScratch{}, 4, 3)
	inc := NewAllocator(tr, core.Strategy{}, 4, 3)
	for i, k := range []int{4, 2, 2, 7, 0, 4} {
		loads := seq.Next()
		fBlue, fPhi := full.HandleWithBudget(loads, k)
		iBlue, iPhi := inc.HandleWithBudget(loads, k)
		requireSameStep(t, i, inc, full, iBlue, fBlue, iPhi, fPhi)
	}
}

func TestHandleRejectsBadLoad(t *testing.T) {
	tr := topology.Path(3)
	a := NewAllocator(tr, placement.Top{}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short load vector")
		}
	}()
	a.Handle([]int{1})
}
