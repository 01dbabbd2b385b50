// Command seabed-bench regenerates every table and figure of the Seabed
// paper's evaluation (§6) at laptop scale.
//
// Usage:
//
//	seabed-bench [-run name[,name...]] [-scale N] [-workers N] [-quick] [-trials N] [-seed N] [-trace]
//
// Without -run, every experiment runs in paper order: one per table and
// figure, plus links, ablations and hedge. Row counts are the paper's divided
// by -scale; shapes, not absolute numbers, are the reproduction target (see
// README.md, "Paper figures: what is substituted"; benchmark/README.md is the
// wall-clock benchmark). -scale, -workers, -trials and -seed left at 0 take
// bench.Config's defaults; -quick picks smaller ones for -workers and -trials.
//
// -trace prints the slowest query's span tree (parse/translate/run/decrypt,
// plus the engine's stage breakdown) after each experiment, so a regression
// in one experiment points at its slowest stage without a re-run. To profile
// an experiment, run its testing.B wrapper in the root package, e.g.
//
//	go test -run '^$' -bench BenchmarkFig6 -cpuprofile cpu.pprof .
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seabed/internal/bench"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment names (default: all); use -list to enumerate")
	list := flag.Bool("list", false, "list experiments and exit")
	scale := flag.Uint64("scale", 0, "divide the paper's row counts by this factor (0 = default)")
	workers := flag.Int("workers", 0, "modelled cluster worker count, also each engine's reducer buckets (0 = default)")
	quick := flag.Bool("quick", false, "shrink sweeps and datasets for a fast smoke run")
	trials := flag.Int("trials", 0, "runs per measured point (0 = default)")
	seed := flag.Int64("seed", 0, "generator seed (0 = default)")
	trace := flag.Bool("trace", false, "print the slowest query's span tree after each experiment")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	cfg := bench.Config{Scale: *scale, Workers: *workers, Quick: *quick, Trials: *trials, Seed: *seed}
	if *trace {
		bench.EnableTracing()
	}

	selected := bench.Experiments()
	if *runFlag != "" {
		selected = nil
		for _, name := range strings.Split(*runFlag, ",") {
			e, ok := bench.Find(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "seabed-bench: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s — %s ===\n", e.Name, e.Title)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "seabed-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *trace {
			if sp := bench.TakeSlowestTrace(); sp != nil {
				fmt.Printf("slowest query in %s (%v):\n%s", e.Name, sp.Duration(), sp)
			}
		}
		fmt.Printf("--- %s done in %.1fs ---\n", e.Name, time.Since(start).Seconds())
	}
}
