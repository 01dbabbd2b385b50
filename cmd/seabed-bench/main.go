// Command seabed-bench regenerates every table and figure of the Seabed
// paper's evaluation (§6) at laptop scale.
//
// Usage:
//
//	seabed-bench [-run name[,name...]] [-scale N] [-workers N] [-quick] [-trials N]
//	             [-cpuprofile out.pprof] [-memprofile out.pprof] [-trace]
//
// Without -run, every experiment runs in paper order. Row counts are the
// paper's divided by -scale (default 10,000); shapes, not absolute numbers,
// are the reproduction target (see README.md, "Paper figures: what is
// substituted"; benchmark/README.md is the wall-clock benchmark).
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments, so executor work is measurable without hand-editing: e.g.
//
//	seabed-bench -run kernels -cpuprofile cpu.pprof
//	go tool pprof cpu.pprof
//
// -trace prints the slowest query's span tree (parse/translate/run/decrypt,
// plus the engine's stage breakdown) after each experiment, so a regression
// in one experiment points at its slowest stage without a re-run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"seabed/internal/bench"
)

func main() {
	os.Exit(run())
}

// run carries the real main so profile writers and other defers execute
// before the process exits.
func run() int {
	runFlag := flag.String("run", "", "comma-separated experiment names (default: all); use -list to enumerate")
	list := flag.Bool("list", false, "list experiments and exit")
	scale := flag.Uint64("scale", 10_000, "divide the paper's row counts by this factor")
	workers := flag.Int("workers", 100, "modelled cluster worker count (paper: 100 cores); also each engine's reducer buckets")
	quick := flag.Bool("quick", false, "shrink sweeps and datasets for a fast smoke run")
	trials := flag.Int("trials", 0, "runs per measured point (0 = default)")
	seed := flag.Int64("seed", 42, "generator seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	trace := flag.Bool("trace", false, "print the slowest query's span tree after each experiment")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return 0
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
				return 2
			}
			selected = append(selected, e)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seabed-bench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "seabed-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "seabed-bench: -cpuprofile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seabed-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "seabed-bench: -memprofile: %v\n", err)
			}
		}()
	}

	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s — %s ===\n", e.Name, e.Title)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "seabed-bench: %s: %v\n", e.Name, err)
			return 1
		}
		if *trace {
			if sp := bench.TakeSlowestTrace(); sp != nil {
				fmt.Printf("slowest query in %s (%v):\n%s", e.Name, sp.Duration(), sp)
			}
		}
		fmt.Printf("--- %s done in %.1fs ---\n", e.Name, time.Since(start).Seconds())
	}
	return 0
}
