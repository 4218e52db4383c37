// Package stats provides the small statistical helpers the experiment
// harness uses to aggregate repeated runs: means, standard deviations and
// standard errors, matching the paper's "average over ten experiments
// with error bars where variance is significant".
package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// samples).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// StdErr returns the standard error of the mean of xs.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Std(xs) / math.Sqrt(float64(len(xs)))
}

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Accumulator collects repeated measurements of a vector-valued
// experiment (one value per x-axis point) and reports per-point means and
// standard errors.
type Accumulator struct {
	points int
	runs   [][]float64
}

// NewAccumulator creates an accumulator for the given number of x-axis
// points.
func NewAccumulator(points int) *Accumulator {
	return &Accumulator{points: points}
}

// Add records one repetition. It panics if the length disagrees with the
// accumulator's point count, which would silently misalign axes.
func (a *Accumulator) Add(run []float64) {
	if len(run) != a.points {
		panic("stats: repetition length mismatch")
	}
	cp := make([]float64, len(run))
	copy(cp, run)
	a.runs = append(a.runs, cp)
}

// Reps returns the number of repetitions recorded.
func (a *Accumulator) Reps() int { return len(a.runs) }

// Mean returns the per-point mean across repetitions.
func (a *Accumulator) Mean() []float64 {
	out := make([]float64, a.points)
	col := make([]float64, len(a.runs))
	for p := 0; p < a.points; p++ {
		for r, run := range a.runs {
			col[r] = run[p]
		}
		out[p] = Mean(col)
	}
	return out
}

// StdErr returns the per-point standard error across repetitions.
func (a *Accumulator) StdErr() []float64 {
	out := make([]float64, a.points)
	col := make([]float64, len(a.runs))
	for p := 0; p < a.points; p++ {
		for r, run := range a.runs {
			col[r] = run[p]
		}
		out[p] = StdErr(col)
	}
	return out
}
