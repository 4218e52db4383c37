package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"soar/internal/experiments"
	"soar/internal/viz"
)

// runExp regenerates one (or all) of the paper's evaluation figures and
// renders the series as tables, optionally writing CSV files.
func runExp(args []string) error {
	fs := newFlagSet("exp")
	quick := fs.Bool("quick", false, "use reduced parameters (for smoke runs)")
	csvDir := fs.String("csv", "", "also write <figure>.csv files into this directory")
	reps := fs.Int("reps", 0, "override the number of repetitions (0 = figure default)")
	plot := fs.Bool("plot", false, "render each subplot as an ASCII chart")
	capsProfile := fs.String("caps", "", "capacity profile for ext-hetero: uniform, tiered, tor or powerlaw (empty = sweep all)")
	// Accept the figure name before the flags: soarctl exp fig6 -csv dir.
	which := ""
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		which, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if which == "" && fs.NArg() == 1 {
		which = fs.Arg(0)
	}
	if which == "" || fs.NArg() > 1 {
		return fmt.Errorf("usage: soarctl exp <fig6|fig7|fig8|fig9|fig10|fig11|ext-objectives|ext-topologies|ext-incremental|ext-hetero|ext-memo|all> [flags]")
	}
	// Validate up front: only ext-hetero consumes the caps profile, but a
	// typo must not silently fall back to the default for the other
	// figures.
	switch *capsProfile {
	case "", "uniform", "tiered", "tor", "powerlaw":
	default:
		return fmt.Errorf("unknown -caps profile %q (want uniform, tiered, tor or powerlaw)", *capsProfile)
	}

	type gen struct {
		id  string
		run func() (*experiments.Figure, error)
	}
	gens := []gen{
		{"fig6", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultFig6()
			if *quick {
				cfg = experiments.QuickFig6()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.Fig6(cfg)
		}},
		{"fig7", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultFig7()
			if *quick {
				cfg = experiments.QuickFig7()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.Fig7(cfg)
		}},
		{"fig8", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultFig8()
			if *quick {
				cfg = experiments.QuickFig8()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.Fig8(cfg)
		}},
		{"fig9", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultFig9()
			if *quick {
				cfg = experiments.QuickFig9()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.Fig9(cfg)
		}},
		{"fig10", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultFig10()
			if *quick {
				cfg = experiments.QuickFig10()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.Fig10(cfg)
		}},
		{"fig11", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultFig11()
			if *quick {
				cfg = experiments.QuickFig11()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.Fig11(cfg)
		}},
		{"ext-objectives", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultExtObjectives()
			if *quick {
				cfg = experiments.QuickExtObjectives()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.ExtObjectives(cfg)
		}},
		{"ext-topologies", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultExtTopologies()
			if *quick {
				cfg = experiments.QuickExtTopologies()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.ExtTopologies(cfg)
		}},
		{"ext-incremental", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultExtIncremental()
			if *quick {
				cfg = experiments.QuickExtIncremental()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.ExtIncremental(cfg)
		}},
		{"ext-memo", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultExtMemo()
			if *quick {
				cfg = experiments.QuickExtMemo()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			return experiments.ExtMemo(cfg)
		}},
		{"ext-hetero", func() (*experiments.Figure, error) {
			cfg := experiments.DefaultExtHetero()
			if *quick {
				cfg = experiments.QuickExtHetero()
			}
			if *reps > 0 {
				cfg.Reps = *reps
			}
			cfg.Profile = *capsProfile
			return experiments.ExtHetero(cfg)
		}},
	}

	ran := false
	for _, g := range gens {
		if which != "all" && which != g.id {
			continue
		}
		ran = true
		fig, err := g.run()
		if err != nil {
			return fmt.Errorf("%s: %w", g.id, err)
		}
		if err := fig.Render(os.Stdout); err != nil {
			return err
		}
		if *plot {
			if err := plotFigure(os.Stdout, fig); err != nil {
				return err
			}
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, g.id+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := fig.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", which)
	}
	return nil
}

// plotFigure renders every subplot of a figure as an ASCII chart.
func plotFigure(w io.Writer, fig *experiments.Figure) error {
	for _, sp := range fig.Subplots {
		series := make([]viz.Series, len(sp.Series))
		for i, s := range sp.Series {
			series[i] = viz.Series{Label: s.Label, X: s.X, Y: s.Y}
		}
		if err := viz.Chart(w, series, viz.Options{
			Title:  fmt.Sprintf("%s — %s", fig.ID, sp.Name),
			XLabel: sp.XLabel,
			Width:  64, Height: 16,
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
