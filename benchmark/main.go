// Command benchmark is the fleet benchmark: it stands up the system users
// run — SQL → trusted proxy → three durable daemons at R=2 over loopback TCP →
// decrypted rows — in one process, drives it with a closed loop of clients,
// checks every answer against a plaintext mirror, and prints wall-clock
// end-to-end metrics (tracing off) or per-layer metrics (a traced run).
// README.md beside this file defines every metric.
//
//	go run ./benchmark                                  # all four workloads, both kinds of run
//	go run ./benchmark -workload dashboard -trace 0     # one run, as BENCHMARK.json's command makes it
//	go run ./benchmark -compare a.json b.json           # judge two result files
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"text/tabwriter"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "run one workload once and print its result as the last line: dashboard, heavy_groupby, scan_cold or ingest_mix (empty: all four, end-to-end and per-layer)")
	seed := flag.Uint64("seed", 1, "dataset seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "with -workload: 0 measures end-to-end metrics with tracing off, 1 per-layer metrics from a traced run")
	scaleName := flag.String("scale", "full", "dataset scale: full or tiny")
	runs := flag.Int("runs", 1, "without -workload: untraced runs per workload, each on its own seed (at least 4 give -compare a spread)")
	out := flag.String("out", filepath.Join(outDir, "result.json"), "without -workload: where the result file goes")
	cmp := flag.Bool("compare", false, "compare two result files given as arguments; exits 1 if any metric is worse")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		a, errA := readResultFile(flag.Arg(0))
		b, errB := readResultFile(flag.Arg(1))
		if err := errors.Join(errA, errB); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if compare(os.Stdout, a, b) {
			return 1
		}
		return 0
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -runs must be at least 1")
		return 2
	}
	if _, ok := scales[*scaleName]; !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q\n", *scaleName)
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (no go.mod here)")
		return 2
	}
	// An interrupt cancels every layer through the context; the run then
	// fails, and failing runs stop their daemons and remove their data dirs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		rec, err := runOne(ctx, w, *scaleName, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		info, _ := json.Marshal(rec.Info)     //nolint:errcheck // plain struct
		last, _ := json.Marshal(rec.Result)   //nolint:errcheck // plain struct
		fmt.Fprintln(os.Stderr, string(info)) // the hygiene record, beside the result
		fmt.Println(string(last))
		if !rec.Result.Correct {
			return 1
		}
		return 0
	}

	// The whole benchmark: every workload, -runs untraced runs and one traced,
	// each in a process of its own, as the driver makes them, so that one
	// run's resident-set peak and garbage are not charged to the next.
	var file resultFile
	failed := false
	for _, w := range workloads {
		for i := 0; i <= *runs; i++ {
			traced := i == *runs
			rec, err := runChild(ctx, w, *scaleName, *seed+uint64(i%*runs), *seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			file.Runs = append(file.Runs, rec)
			failed = failed || !rec.Result.Correct
		}
		printWorkload(w, &file)
	}
	err := os.MkdirAll(filepath.Dir(*out), 0o755)
	if err == nil {
		err = file.write(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("result file:", *out)
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: error_share > 0")
		return 1
	}
	return 0
}

// Where a run's files go, relative to the repository root: the daemons' data
// dirs (each removed when its run ends) and the traces and result files.
var (
	workRoot = filepath.Join(".bench_build", "work")
	outDir   = filepath.Join("benchmark", "out")
)

// runChild makes one run in a child process — this program again, in its
// one-run mode — and reads the run back from the last line of its standard
// output (the result) and of its standard error (the hygiene record).
func runChild(ctx context.Context, w workload, scaleName string, seed uint64, seconds float64, traced bool) (runRecord, error) {
	var rec runRecord
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-scale", scaleName,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) } // let it remove its data dirs
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lastLine := func(b *bytes.Buffer) []byte {
		lines := bytes.Split(bytes.TrimSpace(b.Bytes()), []byte("\n"))
		return lines[len(lines)-1]
	}
	if json.Unmarshal(lastLine(&stdout), &rec.Result) != nil || json.Unmarshal(lastLine(&stderr), &rec.Info) != nil {
		return rec, fmt.Errorf("%s seed %d: run left no result (%v): %s", w.name, seed, runErr, lastLine(&stderr))
	}
	return rec, nil
}

func runOne(ctx context.Context, w workload, scaleName string, seed uint64, seconds float64, traced bool) (runRecord, error) {
	var rec runRecord
	var err error
	if traced {
		rec.Result, rec.Info, err = runTraced(ctx, w, scaleName, seed, seconds, workRoot, outDir)
	} else {
		rec.Result, rec.Info, err = runUntraced(ctx, w, scaleName, seed, seconds, workRoot)
	}
	return rec, err
}

// printWorkload prints every metric of a workload's runs by name with its
// unit: end-to-end as the median over the untraced runs with the sample count
// behind it and its bound, per-layer from the traced run.
func printWorkload(w workload, f *resultFile) {
	var first, traced *runRecord
	for i := range f.Runs {
		r := &f.Runs[i]
		if r.Info.Workload != w.name {
			continue
		}
		if r.Info.Traced {
			traced = r
		} else if first == nil {
			first = r
		}
	}
	fmt.Printf("\n== %s — %s\n", w.name, w.why)
	if first != nil {
		in := first.Info
		fmt.Printf("   seed %d, %gs, %d clients, nproc %d, GOMAXPROCS %d, %s, commit %s, load %.2f, error_share %g\n",
			in.Seed, in.Seconds, in.Clients, in.NProc, in.GOMAXPROCS, in.GoVersion, in.Commit, in.LoadAvg1, in.ErrorShare)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "   end-to-end (tracing off)\tvalue\tunit\tn\tbound\tspread")
		for _, def := range endToEnd {
			s := f.samples(w.name, def.name)
			n := in.Queries // the sample behind a timing
			switch def.name {
			case "setup_s":
				n = len(in.SetupsS)
			case "peak_rss_mb", "stored_bytes_per_plain_byte":
				n = 1
			}
			note := ""
			if def.name == "query_p90_ms" && !supported(in.Queries, 90) {
				note = " (under ten samples beyond it)"
			}
			fmt.Fprintf(tw, "   %s\t%.4f\t%s\t%d\t%.0f%%\t%.1f%% over %d runs%s\n",
				def.name, median(s), def.unit, n, def.bound*100, spread(s)*100, len(s), note)
		}
		tw.Flush() //nolint:errcheck // terminal output
	}
	if traced != nil {
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "   per-layer (traced run)\tvalue\tunit")
		names := make([]string, 0, len(traced.Result.Metrics))
		for name := range traced.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := traced.Result.Metrics[name]
			fmt.Fprintf(tw, "   %s\t%.4f\t%s\n", name, v.Value, v.Unit)
		}
		tw.Flush() //nolint:errcheck // terminal output
	}
}
