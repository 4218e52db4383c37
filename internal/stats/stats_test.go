package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v, want 5", m)
	}
	if s := Std(xs); math.Abs(s-2.138) > 0.01 {
		t.Fatalf("std %v, want ≈2.138", s)
	}
	if se := StdErr(xs); math.Abs(se-2.138/math.Sqrt(8)) > 0.01 {
		t.Fatalf("stderr %v", se)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || StdErr(nil) != 0 {
		t.Fatal("empty input should give zeros")
	}
	if Std([]float64{3}) != 0 {
		t.Fatal("singleton std should be 0")
	}
	if Mean([]float64{3}) != 3 {
		t.Fatal("singleton mean")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("minmax = %v, %v", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Fatal("empty minmax should be 0,0")
	}
}

func TestAccumulator(t *testing.T) {
	a := NewAccumulator(3)
	a.Add([]float64{1, 2, 3})
	a.Add([]float64{3, 2, 1})
	if a.Reps() != 2 {
		t.Fatalf("reps %d", a.Reps())
	}
	m := a.Mean()
	if m[0] != 2 || m[1] != 2 || m[2] != 2 {
		t.Fatalf("mean %v", m)
	}
	se := a.StdErr()
	if se[1] != 0 || se[0] == 0 {
		t.Fatalf("stderr %v", se)
	}
}

func TestAccumulatorCopiesInput(t *testing.T) {
	a := NewAccumulator(2)
	run := []float64{1, 2}
	a.Add(run)
	run[0] = 100
	if a.Mean()[0] != 1 {
		t.Fatal("accumulator retained caller's slice")
	}
}

func TestAccumulatorLengthMismatchPanics(t *testing.T) {
	a := NewAccumulator(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Add([]float64{1})
}

func TestQuickMeanBounds(t *testing.T) {
	// Mean lies within [min, max] for any non-empty input.
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		min, max := MinMax(clean)
		m := Mean(clean)
		return m >= min-1e-6 && m <= max+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
