package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func findSeries(t *testing.T, sp Subplot, label string) Series {
	t.Helper()
	for _, s := range sp.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("subplot %q has no series %q", sp.Name, label)
	return Series{}
}

func TestFig6Shapes(t *testing.T) {
	fig, err := Fig6(QuickFig6())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Subplots) != 6 { // 3 rate schemes × 2 load distributions
		t.Fatalf("got %d subplots, want 6", len(fig.Subplots))
	}
	for _, sp := range fig.Subplots {
		soar := findSeries(t, sp, "soar")
		blue := findSeries(t, sp, "all-blue")
		for i := range soar.X {
			// SOAR is optimal: no strategy may dip below it, and it is
			// bracketed by all-blue and all-red (ratio 1).
			for _, s := range sp.Series {
				if s.Label == "all-blue" {
					continue
				}
				if s.Y[i] < soar.Y[i]-1e-9 {
					t.Fatalf("%s: %s beats SOAR at k=%v (%v < %v)",
						sp.Name, s.Label, soar.X[i], s.Y[i], soar.Y[i])
				}
				if s.Y[i] > 1+1e-9 {
					t.Fatalf("%s: %s ratio %v above all-red", sp.Name, s.Label, s.Y[i])
				}
			}
			if soar.Y[i] < blue.Y[i]-1e-9 {
				t.Fatalf("%s: SOAR %v below all-blue %v", sp.Name, soar.Y[i], blue.Y[i])
			}
		}
		// SOAR utilisation is non-increasing in k.
		for i := 1; i < len(soar.Y); i++ {
			if soar.Y[i] > soar.Y[i-1]+1e-9 {
				t.Fatalf("%s: SOAR ratio increased from %v to %v", sp.Name, soar.Y[i-1], soar.Y[i])
			}
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	fig, err := Fig7(QuickFig7())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Subplots) != 6 { // 3 rate schemes × 2 sweeps
		t.Fatalf("got %d subplots, want 6", len(fig.Subplots))
	}
	for _, sp := range fig.Subplots {
		soar := findSeries(t, sp, "soar")
		for i := range soar.Y {
			if soar.Y[i] <= 0 || soar.Y[i] > 1+1e-9 {
				t.Fatalf("%s: SOAR ratio %v outside (0,1]", sp.Name, soar.Y[i])
			}
		}
		if strings.Contains(sp.Name, "number of workloads") {
			// With bounded capacity the cumulative ratio degrades as
			// workloads accumulate.
			if soar.Y[len(soar.Y)-1] < soar.Y[0] {
				t.Fatalf("%s: SOAR ratio improved from %v to %v despite capacity exhaustion",
					sp.Name, soar.Y[0], soar.Y[len(soar.Y)-1])
			}
		}
		if strings.Contains(sp.Name, "switch capacity") {
			// More capacity can only help SOAR.
			first, last := soar.Y[0], soar.Y[len(soar.Y)-1]
			if last > first+0.02 {
				t.Fatalf("%s: SOAR ratio worsened with capacity: %v -> %v", sp.Name, first, last)
			}
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	fig, err := Fig8(QuickFig8())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Subplots) != 3 {
		t.Fatalf("got %d subplots, want 3", len(fig.Subplots))
	}
	util, bytesRed, bytesBlue := fig.Subplots[0], fig.Subplots[1], fig.Subplots[2]

	// Utilization is use-case independent: WC and PS curves coincide for
	// the same load distribution (paper Fig. 8a).
	wcU := findSeries(t, util, "WC-uniform")
	psU := findSeries(t, util, "PS-uniform")
	for i := range wcU.Y {
		if math.Abs(wcU.Y[i]-psU.Y[i]) > 1e-9 {
			t.Fatalf("utilization differs across use cases: %v vs %v", wcU.Y[i], psU.Y[i])
		}
	}
	// Byte ratios normalized to all-red stay in (0, 1]; normalized to
	// all-blue they are ≥ 1 and approach 1 as k grows.
	for _, s := range bytesRed.Series {
		for i, y := range s.Y {
			if y <= 0 || y > 1+1e-9 {
				t.Fatalf("bytes/all-red %s[%d] = %v outside (0,1]", s.Label, i, y)
			}
		}
	}
	for _, s := range bytesBlue.Series {
		if s.Y[0] < 1-1e-9 {
			t.Fatalf("bytes/all-blue %s starts at %v, want ≥ 1", s.Label, s.Y[0])
		}
		if s.Y[len(s.Y)-1] > s.Y[0]+1e-9 {
			t.Fatalf("bytes/all-blue %s should approach 1: %v -> %v", s.Label, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
	// PS bytes track utilization closely (paper Sec. 5.3).
	psB := findSeries(t, bytesRed, "PS-uniform")
	for i := range psB.Y {
		if math.Abs(psB.Y[i]-psU.Y[i]) > 0.2 {
			t.Fatalf("PS bytes ratio %v far from utilization %v", psB.Y[i], psU.Y[i])
		}
	}
}

// TestFig9Shapes asserts the figure's one ordering claim, SOAR-Color no
// slower than SOAR-Gather, on wall-clock samples of tens of
// microseconds: a mean of two such samples loses to one descheduling of
// the test process. So each point is sampled rounds times (Reps: 1
// makes a series' mean the sample itself) and the per-point minima are
// compared — noise only ever adds time, and it would have to land on
// Color in every round to reverse them.
func TestFig9Shapes(t *testing.T) {
	const rounds = 7
	cfg := QuickFig9()
	cfg.Reps = 1
	var best [2][][]float64 // [gather|color][series][point] minimum seconds
	for round := 0; round < rounds; round++ {
		fig, err := Fig9(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gather, color := fig.Subplots[0], fig.Subplots[1]
		if len(gather.Series) != 2 || len(color.Series) != 2 {
			t.Fatalf("series counts %d/%d, want 2 sizes each", len(gather.Series), len(color.Series))
		}
		for pi, sp := range []Subplot{gather, color} {
			for si, s := range sp.Series {
				if round == 0 {
					best[pi] = append(best[pi], append([]float64(nil), s.Y...))
					continue
				}
				for i, y := range s.Y {
					best[pi][si][i] = min(best[pi][si][i], y)
				}
			}
		}
	}
	for si := range best[0] {
		for i := range best[0][si] {
			g, c := best[0][si][i], best[1][si][i]
			if g <= 0 || c < 0 {
				t.Fatalf("non-positive timings g=%v c=%v", g, c)
			}
			if c > g {
				t.Fatalf("SOAR-Color (best of %d: %v s) slower than SOAR-Gather (%v s)", rounds, c, g)
			}
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	fig, err := Fig10(QuickFig10())
	if err != nil {
		t.Fatal(err)
	}
	spA, spB := fig.Subplots[0], fig.Subplots[1]
	onePct := findSeries(t, spA, "1% of n")
	blue := findSeries(t, spA, "all-blue")
	for i := range onePct.Y {
		if onePct.Y[i] < blue.Y[i]-1e-9 || onePct.Y[i] > 1+1e-9 {
			t.Fatalf("1%% ratio %v outside [all-blue %v, 1]", onePct.Y[i], blue.Y[i])
		}
	}
	for _, s := range spB.Series {
		for i, y := range s.Y {
			if !math.IsNaN(y) && (y < 0 || y > 100) {
				t.Fatalf("%s blue-fraction %v%% at size %v out of range", s.Label, y, s.X[i])
			}
		}
	}
	// Reaching 50% savings needs at least as many switches as 30%.
	s30 := findSeries(t, spB, "30% saving")
	s50 := findSeries(t, spB, "50% saving")
	for i := range s30.Y {
		if !math.IsNaN(s30.Y[i]) && !math.IsNaN(s50.Y[i]) && s50.Y[i] < s30.Y[i]-1e-9 {
			t.Fatalf("50%% target needs %v%% < 30%% target %v%%", s50.Y[i], s30.Y[i])
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	fig, err := Fig11(QuickFig11())
	if err != nil {
		t.Fatal(err)
	}
	example, scaling := fig.Subplots[0], fig.Subplots[1]
	maxPhi := findSeries(t, example, "max-degree").Y[0]
	soarPhi := findSeries(t, example, "soar").Y[0]
	if soarPhi > maxPhi+1e-9 {
		t.Fatalf("SOAR φ=%v worse than max-degree φ=%v on SF example", soarPhi, maxPhi)
	}
	for _, s := range scaling.Series {
		for i, y := range s.Y {
			if y <= 0 || y > 1+1e-9 {
				t.Fatalf("scaling %s[%d] = %v outside (0,1]", s.Label, i, y)
			}
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	fig, err := Fig6(QuickFig6())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig6", "soar", "all-blue", "k"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
	buf.Reset()
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "figure,subplot,series,x,y,stderr" {
		t.Fatalf("csv header %q", lines[0])
	}
	wantRows := 6 * 5 * len(QuickFig6().Ks) // subplots × series × points
	if len(lines)-1 != wantRows {
		t.Fatalf("csv has %d rows, want %d", len(lines)-1, wantRows)
	}
	if !strings.Contains(buf.String(), `"constant (w=1), power-law load"`) {
		t.Fatal("csv did not quote subplot names containing commas")
	}
}
