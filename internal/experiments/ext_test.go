package experiments

import (
	"math/rand"
	"testing"

	"soar/internal/core"
	"soar/internal/topology"
	"soar/internal/workload"
)

func TestExtIncrementalShapes(t *testing.T) {
	fig, err := ExtIncremental(QuickExtIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Subplots) != 3 {
		t.Fatalf("got %d subplots, want 3 (full, incremental, speedup)", len(fig.Subplots))
	}
	for _, sp := range fig.Subplots[:2] {
		for _, s := range sp.Series {
			for i, y := range s.Y {
				if y <= 0 {
					t.Fatalf("%s %s: non-positive time %v at k=%v", sp.Name, s.Label, y, s.X[i])
				}
			}
		}
	}
}

func TestExtMemoShapes(t *testing.T) {
	fig, err := ExtMemo(QuickExtMemo())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Subplots) != 2 {
		t.Fatalf("got %d subplots, want 2 (speedup, classes)", len(fig.Subplots))
	}
	for _, s := range fig.Subplots[0].Series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("speedup %s: non-positive ratio %v at frac=%v", s.Label, y, s.X[i])
			}
		}
	}
	for _, s := range fig.Subplots[1].Series {
		for i, y := range s.Y {
			if y <= 0 || y > 1 {
				t.Fatalf("classes %s: fraction %v at frac=%v outside (0, 1]", s.Label, y, s.X[i])
			}
		}
	}
}

// fromScratch is SOAR re-solved per workload; not being core.Strategy,
// it keeps workload.NewAllocator off its incremental engine.
type fromScratch struct{}

func (fromScratch) Name() string { return "soar" }

func (fromScratch) Place(t *topology.Tree, loads []int, avail []bool, k int) []bool {
	return core.Solve(t, loads, avail, k).Blue
}

func TestFig7IncrementalEngineMatchesFull(t *testing.T) {
	// Fig7's soar series is produced by the incremental engine behind
	// workload.NewAllocator(core.Strategy{}). Replaying the figure's
	// arrivals through a from-scratch core.Solve per workload must give
	// the same series point for point, in both rows of every rate scheme.
	cfg := QuickFig7()
	cfg.Reps = 1
	fig, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	soarSeries := func(sp Subplot) []float64 {
		for _, s := range sp.Series {
			if s.Label == "soar" {
				return s.Y
			}
		}
		t.Fatalf("%s: no soar series", sp.Name)
		return nil
	}
	base := topology.MustBT(cfg.N)
	for ri, rs := range RateSchemes() {
		tr := topology.ApplyRates(base, rs.Scheme)
		seq := workload.NewSequence(tr, rand.New(rand.NewSource(cfg.Seed)))
		arrivals := make([][]int, cfg.Workloads)
		for i := range arrivals {
			arrivals[i] = seq.Next()
		}
		full := workload.Run(workload.NewAllocator(tr, fromScratch{}, cfg.K, cfg.Capacity), arrivals)
		for i, y := range soarSeries(fig.Subplots[2*ri]) {
			if y != full.CumulativeRatio[i] {
				t.Fatalf("%s workload %d: incremental %v, from scratch %v", rs.Name, i, y, full.CumulativeRatio[i])
			}
		}
		for ci, y := range soarSeries(fig.Subplots[2*ri+1]) {
			r := workload.Run(workload.NewAllocator(tr, fromScratch{}, cfg.K, cfg.CapacitySweep[ci]), arrivals)
			if want := r.CumulativeRatio[len(arrivals)-1]; y != want {
				t.Fatalf("%s capacity %d: incremental %v, from scratch %v", rs.Name, cfg.CapacitySweep[ci], y, want)
			}
		}
	}
}

func TestExtObjectivesShapes(t *testing.T) {
	fig, err := ExtObjectives(QuickExtObjectives())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Subplots) != 3 {
		t.Fatalf("got %d subplots, want 3 (utilization, completion, bottleneck)", len(fig.Subplots))
	}
	// On the utilization metric SOAR must dominate outright.
	util := fig.Subplots[0]
	soar := findSeries(t, util, "soar")
	for _, s := range util.Series {
		for i := range s.Y {
			if s.Y[i] < soar.Y[i]-1e-9 {
				t.Fatalf("%s beats SOAR on φ at k=%v", s.Label, s.X[i])
			}
		}
	}
	// On the other metrics SOAR is a heuristic (the paper's conjecture):
	// sanity-check only that ratios are positive and ≤ a loose bound, and
	// that completion time improves from k=min to k=max.
	for _, sp := range fig.Subplots[1:] {
		soar := findSeries(t, sp, "soar")
		for i, y := range soar.Y {
			if y <= 0 || y > 1.5 {
				t.Fatalf("%s: SOAR ratio %v at k=%v implausible", sp.Name, y, soar.X[i])
			}
		}
		if last := soar.Y[len(soar.Y)-1]; last > soar.Y[0]+1e-9 {
			t.Fatalf("%s: SOAR ratio worsened with k: %v -> %v", sp.Name, soar.Y[0], last)
		}
	}
}

func TestExtHeteroShapes(t *testing.T) {
	fig, err := ExtHetero(QuickExtHetero())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Subplots) != 1 {
		t.Fatalf("got %d subplots, want 1", len(fig.Subplots))
	}
	sp := fig.Subplots[0]
	if len(sp.Series) != 4 {
		t.Fatalf("got %d profiles, want 4", len(sp.Series))
	}
	uniform := findSeries(t, sp, "uniform(1)")
	for _, s := range sp.Series {
		for i, y := range s.Y {
			if y <= 0 || y > 1+1e-9 {
				t.Fatalf("%s: ratio %v out of range at k=%v", s.Label, y, s.X[i])
			}
			// Every profile's weights are ≥ the uniform model's wherever
			// positive, so uniform(1) lower-bounds all of them at each k.
			if y < uniform.Y[i]-1e-9 {
				t.Fatalf("%s beats uniform(1) at k=%v: %v < %v", s.Label, s.X[i], y, uniform.Y[i])
			}
			// Ratios are non-increasing in the budget within a profile.
			if i > 0 && y > s.Y[i-1]+1e-9 {
				t.Fatalf("%s: ratio worsened with k: %v -> %v", s.Label, s.Y[i-1], y)
			}
		}
	}
}

func TestExtHeteroProfileFilter(t *testing.T) {
	cfg := QuickExtHetero()
	full, err := ExtHetero(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = "powerlaw"
	filtered, err := ExtHetero(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := filtered.Subplots[0].Series
	if len(got) != 1 || got[0].Label != "powerlaw(max=8,α=2.5)" {
		t.Fatalf("filter kept %d series", len(got))
	}
	// A filtered run must reproduce the full sweep's series exactly:
	// every profile draws from its own salted rng stream, so dropping
	// the others cannot shift its capacities.
	want := findSeries(t, full.Subplots[0], "powerlaw(max=8,α=2.5)")
	for i := range want.Y {
		if got[0].Y[i] != want.Y[i] {
			t.Fatalf("filtered powerlaw differs from full sweep at k=%v: %v vs %v",
				want.X[i], got[0].Y[i], want.Y[i])
		}
	}
	cfg.Profile = "warp"
	if _, err := ExtHetero(cfg); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestExtTopologiesShapes(t *testing.T) {
	fig, err := ExtTopologies(QuickExtTopologies())
	if err != nil {
		t.Fatal(err)
	}
	sp := fig.Subplots[0]
	soar := findSeries(t, sp, "soar")
	if len(soar.Y) != 6 {
		t.Fatalf("got %d families, want 6", len(soar.Y))
	}
	for _, s := range sp.Series {
		for i := range s.Y {
			if s.Y[i] < soar.Y[i]-1e-9 {
				t.Fatalf("%s beats SOAR on family %v: %v < %v", s.Label, s.X[i], s.Y[i], soar.Y[i])
			}
			if s.Y[i] <= 0 || s.Y[i] > 1+1e-9 {
				t.Fatalf("%s ratio %v out of range on family %v", s.Label, s.Y[i], s.X[i])
			}
		}
	}
}
