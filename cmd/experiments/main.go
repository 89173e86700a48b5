// Command experiments regenerates the paper's tables and figures and the
// extended experiment suite defined in DESIGN.md. Each experiment prints an
// aligned text table; EXPERIMENTS.md records the canonical output.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1
//	experiments -run expansion -n 10000 -seed 2011
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// allExperiments is what -run all runs, in order.
var allExperiments = []string{"table1", "figure1", "figure2", "expansion", "accumulation", "estimator", "alpha", "baseline", "ablations", "game", "legacy", "xmlparity"}

// config holds the command-line flags.
type config struct {
	run      string
	n        int
	seed     uint64
	steps, k int
}

// parseFlags parses args (without the program name) into a config. On a
// bad flag or -h the flag set has already printed usage.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.run, "run", "all", "experiment to run: table1, figure1, figure2, expansion, accumulation, estimator, alpha, baseline, ablations, all")
	fs.IntVar(&cfg.n, "n", 5000, "population size for population-scale experiments")
	fs.Uint64Var(&cfg.seed, "seed", 2011, "deterministic generator seed")
	fs.IntVar(&cfg.steps, "steps", 8, "widening steps for expansion-style experiments")
	fs.IntVar(&cfg.k, "k", 3, "k for the k-anonymity baseline release")
	err := fs.Parse(args)
	return cfg, err
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run writes the experiments cfg names to w, separated by rules.
func run(w io.Writer, cfg config) error {
	names := strings.Split(cfg.run, ",")
	if cfg.run == "all" {
		names = allExperiments
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(w)
			fmt.Fprintln(w, strings.Repeat("=", 78))
			fmt.Fprintln(w)
		}
		if err := runOne(w, strings.TrimSpace(name), cfg.n, cfg.seed, cfg.steps, cfg.k); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func runOne(w io.Writer, name string, n int, seed uint64, steps, k int) error {
	switch name {
	case "table1":
		r := experiments.Table1()
		if err := r.Fprint(w); err != nil {
			return err
		}
		if !r.Matches() {
			return fmt.Errorf("reproduction DIVERGES from the paper")
		}
		fmt.Fprintln(w, "\nreproduction matches the paper: YES")
		return nil
	case "figure1":
		return experiments.FprintFigure1(w, experiments.Figure1())
	case "figure2":
		return experiments.Figure2(w)
	case "expansion":
		cfg := experiments.DefaultExpansionConfig()
		cfg.N, cfg.Seed, cfg.Steps = n, seed, steps
		r, err := experiments.Expansion(cfg)
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "accumulation":
		cfg := experiments.DefaultExpansionConfig()
		cfg.N, cfg.Seed, cfg.Steps = n, seed, steps
		r, err := experiments.Accumulation(cfg)
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "estimator":
		r, err := experiments.Estimator(n, seed, experiments.DefaultTrialCounts())
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "alpha":
		r, err := experiments.AlphaSweep(n, seed, steps, experiments.DefaultAlphas())
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "baseline":
		r, err := experiments.BaselineContrast(min(n, 1000), seed, k, steps)
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "ablations":
		r, err := experiments.Ablations(n, seed)
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "game":
		r, err := experiments.Game(min(n, 2000), seed, 2)
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "legacy":
		r, err := experiments.Legacy(n, seed, min(n/20+10, 500))
		if err != nil {
			return err
		}
		return r.Fprint(w)
	case "xmlparity":
		r, err := experiments.XMLParity(min(n, 2000), seed)
		if err != nil {
			return err
		}
		return r.Fprint(w)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
