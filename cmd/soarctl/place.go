package main

import (
	"fmt"
	"math/rand"
	"os"

	"soar/internal/core"
	"soar/internal/load"
	"soar/internal/placement"
	"soar/internal/reduce"
	"soar/internal/topology"
)

// capsSOAR is SOAR under a capacity profile as a placement.Strategy: a
// blue at v consumes caps[v] budget units. The avail argument of the
// strategy interface is ignored — the zero entries of caps carry it.
type capsSOAR struct{ caps []int }

func (capsSOAR) Name() string { return "soar" }

func (s capsSOAR) Place(t *topology.Tree, loads []int, _ []bool, k int) []bool {
	return core.SolveCaps(t, loads, s.caps, k).Blue
}

// budgetedStrategy makes a weight-oblivious baseline honor the weighted
// budget of the capacity model, so the place table compares feasible
// solutions of the same problem: it re-runs the baseline with shrinking
// switch counts until the picked set's capacity sum fits the budget
// (the baselines pick prefixes of a preference order, so shrinking the
// count shrinks the set).
type budgetedStrategy struct {
	placement.Strategy
	caps []int
}

func (b budgetedStrategy) Place(t *topology.Tree, loads []int, avail []bool, k int) []bool {
	for j := k; j > 0; j-- {
		blue := b.Strategy.Place(t, loads, avail, j)
		spent := 0
		for v, on := range blue {
			if on {
				spent += b.caps[v]
			}
		}
		if spent <= k {
			return blue
		}
	}
	return make([]bool, t.N())
}

// runPlace builds one instance and prints every strategy's placement and
// normalized utilization.
func runPlace(args []string) error {
	fs := newFlagSet("place")
	topo := fs.String("topo", "bt", "topology: bt (complete binary) or sf (scale-free)")
	n := fs.Int("n", 256, "network size (bt: including destination, power of two; sf: switches)")
	k := fs.Int("k", 16, "aggregation switch budget")
	dist := fs.String("dist", "powerlaw", "load distribution: uniform, powerlaw or one (unit)")
	rates := fs.String("rates", "constant", "link rates: constant, linear or exp")
	capsSpec := fs.String("caps", "", capsProfileHelp)
	seed := fs.Int64("seed", 1, "random seed")
	dot := fs.String("dot", "", "write the SOAR placement as Graphviz DOT to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	var tr *topology.Tree
	var where load.Placement
	switch *topo {
	case "bt":
		t, err := topology.BT(*n)
		if err != nil {
			return err
		}
		tr, where = t, load.LeavesOnly
	case "sf":
		if *n < 1 {
			return fmt.Errorf("-n %d: a scale-free network needs at least one switch", *n)
		}
		tr, where = topology.ScaleFree(*n, rng), load.AllNodes
	default:
		return fmt.Errorf("unknown -topo %q", *topo)
	}
	switch *rates {
	case "constant":
	case "linear":
		tr = topology.ApplyRates(tr, topology.RatesLinear())
	case "exp":
		tr = topology.ApplyRates(tr, topology.RatesExponential())
	default:
		return fmt.Errorf("unknown -rates %q", *rates)
	}
	var d load.Distribution
	switch *dist {
	case "uniform":
		d = load.PaperUniform()
	case "powerlaw":
		d = load.PaperPowerLaw()
	case "one":
		d = load.Constant{V: 1}
	default:
		return fmt.Errorf("unknown -dist %q", *dist)
	}
	// The profile draws from its own seeded stream so that adding -caps
	// never shifts the instance: loads (and an sf tree) generated from
	// rng are identical with and without a profile at the same -seed.
	caps, err := parseCapsProfile(*capsSpec, tr, rand.New(rand.NewSource(*seed+1)))
	if err != nil {
		return err
	}
	loads := load.Generate(tr, d, where, rng)

	// Under a capacity profile the baselines pick only from {caps > 0}
	// and are wrapped to spend the same weighted budget SOAR does
	// (all-blue stays unbounded: it is the no-budget lower bound).
	var avail []bool
	var soar placement.Strategy = core.Strategy{}
	budgeted := func(s placement.Strategy) placement.Strategy { return s }
	if caps != nil {
		soar = capsSOAR{caps}
		avail = make([]bool, tr.N())
		for v, c := range caps {
			avail[v] = c > 0
		}
		budgeted = func(s placement.Strategy) placement.Strategy {
			return budgetedStrategy{Strategy: s, caps: caps}
		}
	}

	allRed := reduce.Utilization(tr, loads, make([]bool, tr.N()))
	fmt.Printf("instance: %s n=%d switches=%d height=%d totalLoad=%d rates=%s dist=%s k=%d\n",
		*topo, *n, tr.N(), tr.Height(), load.Total(loads), *rates, *dist, *k)
	if caps != nil {
		fmt.Printf("capacity profile: %s (%s)\n", *capsSpec, capsSummary(caps))
	}
	fmt.Printf("%-12s %12s %12s  %s\n", "strategy", "phi", "vs all-red", "")
	strategies := []placement.Strategy{
		placement.AllRed{}, budgeted(placement.Top{}), budgeted(placement.Max{}),
		budgeted(placement.MaxDegree{}), budgeted(placement.Level{}),
		budgeted(placement.Greedy{}), soar, placement.AllBlue{},
	}
	var soarBlue []bool
	for _, s := range strategies {
		blue := s.Place(tr, loads, avail, *k)
		phi := reduce.Utilization(tr, loads, blue)
		fmt.Printf("%-12s %12.2f %12.4f\n", s.Name(), phi, phi/allRed)
		if s.Name() == "soar" {
			soarBlue = blue
		}
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteDOT(f, loads, soarBlue); err != nil {
			return err
		}
		fmt.Printf("wrote SOAR placement to %s\n", *dot)
	}
	return nil
}
