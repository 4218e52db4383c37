package experiments

import (
	"fmt"
	"math/rand"

	"soar/internal/stats"
	"soar/internal/topology"
	"soar/internal/workload"
)

// Fig7Config parameterizes the paper's Fig. 7: online multi-workload
// aggregation under bounded per-switch capacity.
type Fig7Config struct {
	// N is the BT network size (paper: 256).
	N int
	// K is the per-workload budget (paper: 16).
	K int
	// Capacity is the per-switch aggregation capacity for the
	// workload-count sweep (paper: 4).
	Capacity int
	// Workloads is the arrival-sequence length (paper: 32).
	Workloads int
	// CapacitySweep are the capacities for the bottom-row sweep
	// (paper plots 5..30; defaults cover 1..32).
	CapacitySweep []int
	// Reps averages over independent arrival sequences (paper: 10).
	Reps int
	Seed int64
}

// DefaultFig7 reproduces the paper's setup.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		N: 256, K: 16, Capacity: 4, Workloads: 32,
		CapacitySweep: []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32},
		Reps:          10, Seed: 2,
	}
}

// QuickFig7 is a reduced instance for tests and benchmarks.
func QuickFig7() Fig7Config {
	return Fig7Config{
		N: 64, K: 8, Capacity: 2, Workloads: 10,
		CapacitySweep: []int{1, 2, 4, 8},
		Reps:          2, Seed: 2,
	}
}

// Fig7 regenerates the paper's Fig. 7. For each rate scheme it produces
// two subplots: cumulative normalized utilization versus the number of
// workloads handled (at fixed capacity), and the final cumulative ratio
// versus per-switch capacity (at a fixed number of workloads).
func Fig7(cfg Fig7Config) (*Figure, error) {
	base, err := topology.BT(cfg.N)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "fig7", Title: "Online multiple workloads under bounded switch capacity"}
	strategies := CompareStrategies()

	for _, rs := range RateSchemes() {
		tr := topology.ApplyRates(base, rs.Scheme)

		// Top row: utilization ratio as workloads accumulate.
		accSeq := make([]*stats.Accumulator, len(strategies))
		for i := range accSeq {
			accSeq[i] = stats.NewAccumulator(cfg.Workloads)
		}
		// Bottom row: final ratio per capacity.
		accCap := make([]*stats.Accumulator, len(strategies))
		for i := range accCap {
			accCap[i] = stats.NewAccumulator(len(cfg.CapacitySweep))
		}

		for rep := 0; rep < cfg.Reps; rep++ {
			// One arrival sequence shared by every strategy and sweep, so
			// the comparison is paired.
			seqRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*1009))
			seq := workload.NewSequence(tr, seqRng)
			arrivals := make([][]int, cfg.Workloads)
			for i := range arrivals {
				arrivals[i] = seq.Next()
			}
			for si, s := range strategies {
				alloc := workload.NewAllocator(tr, s, cfg.K, cfg.Capacity)
				res := workload.Run(alloc, arrivals)
				accSeq[si].Add(res.CumulativeRatio)

				row := make([]float64, len(cfg.CapacitySweep))
				for ci, c := range cfg.CapacitySweep {
					a := workload.NewAllocator(tr, s, cfg.K, c)
					r := workload.Run(a, arrivals)
					row[ci] = r.CumulativeRatio[len(arrivals)-1]
				}
				accCap[si].Add(row)
			}
		}

		seqX := make([]float64, cfg.Workloads)
		for i := range seqX {
			seqX[i] = float64(i + 1)
		}
		spSeq := Subplot{
			Name:   fmt.Sprintf("%s: utilization vs number of workloads (capacity %d)", rs.Name, cfg.Capacity),
			XLabel: "workloads",
			YLabel: "cumulative utilization (vs all-red)",
		}
		for si, s := range strategies {
			spSeq.Series = append(spSeq.Series, Series{
				Label: s.Name(), X: seqX, Y: accSeq[si].Mean(), Err: accSeq[si].StdErr(),
			})
		}
		fig.Subplots = append(fig.Subplots, spSeq)

		capX := make([]float64, len(cfg.CapacitySweep))
		for i, c := range cfg.CapacitySweep {
			capX[i] = float64(c)
		}
		spCap := Subplot{
			Name:   fmt.Sprintf("%s: utilization vs switch capacity (%d workloads)", rs.Name, cfg.Workloads),
			XLabel: "capacity",
			YLabel: "cumulative utilization (vs all-red)",
		}
		for si, s := range strategies {
			spCap.Series = append(spCap.Series, Series{
				Label: s.Name(), X: capX, Y: accCap[si].Mean(), Err: accCap[si].StdErr(),
			})
		}
		fig.Subplots = append(fig.Subplots, spCap)
	}
	return fig, nil
}
