package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json a comparison needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread is the distance between the first and third quartile as a share
// of the median; with fewer than four values it is the whole range.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return (hi - lo) / med
}

// quartiles returns the first and third quartile of sorted the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), which
// is what the benchmark driver uses.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		i := int(pos)
		if i < 1 {
			return sorted[0]
		}
		if i >= len(sorted) {
			return sorted[len(sorted)-1]
		}
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	return at(0.25), at(0.75)
}

// compareFiles prints, for every (workload, end-to-end metric), the
// medians of the untraced passes in files a and b, the ratio b/a with
// its base, and a verdict against the metric's bound in BENCHMARK.json:
// ok, worse, or unresolved when either side's own runs spread wider
// than the bound and so cannot show a change of that size.
func compareFiles(a, b string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ra, err := readResults(a)
	if err != nil {
		return err
	}
	rb, err := readResults(b)
	if err != nil {
		return err
	}
	values := func(rf resultFile, w, name string) []float64 {
		var v []float64
		for _, r := range rf.Runs {
			if m, ok := r.Pass.Metrics[name]; ok && r.Pass.Workload == w && !r.Pass.Traced {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Printf("%-14s %-22s %12s %12s %-6s %8s  %-22s %6s  %s\n", "workload", "metric", "A median", "B median", "unit", "B/A", "base", "bound", "verdict")
	worse := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, w.name, m.Name), values(rb, w.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := mb/ma - 1 // positive: B is larger
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread A %.1f %%, B %.1f %%)", 100*spread(va), 100*spread(vb))
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %-6s %8.3f  %-22s %5.0f%%  %s\n", w.name, m.Name, ma, mb, m.Unit, mb/ma,
				fmt.Sprintf("A=%.4g (n=%d,%d)", ma, len(va), len(vb)), 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
