package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// runRecord is one run as a result file keeps it.
type runRecord struct {
	Info   runInfo `json:"info"`
	Result result  `json:"result"`
}

// resultFile is what a full benchmark run writes and -compare reads: every
// run made, untraced and traced, with its hygiene record.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// samples returns the values one metric took over a workload's untraced runs.
func (f *resultFile) samples(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Info.Workload != workload || r.Info.Traced {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges one end-to-end metric on one workload between two sets of
// runs. A spread (interquartile distance over the median, the wider of the two
// sets) beyond the bound means the runs cannot resolve a change of the size
// the bound forbids: that is "unresolved", never "same".
func verdict(def metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	ratio := mb / ma
	if max(spread(a), spread(b)) > def.bound {
		return "unresolved", ratio
	}
	change := ratio - 1 // positive: the metric grew
	if def.better == "higher" {
		change = -change
	}
	switch {
	case change > def.bound:
		return "worse", ratio
	case change < -def.bound:
		return "better", ratio
	}
	return "same", ratio
}

// compare prints one row per (end-to-end metric, workload) and reports
// whether any row is worse.
func compare(w io.Writer, a, b *resultFile) (worse bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (base)\tb\tb/a\tspread a\tspread b\tbound\tverdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			sa, sb := a.samples(wl.name, def.name), b.samples(wl.name, def.name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			v, ratio := verdict(def, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (n=%d)\t%.4g (n=%d)\t%.3f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, def.name, def.unit, median(sa), len(sa), median(sb), len(sb), ratio,
				spread(sa)*100, spread(sb)*100, def.bound*100, v)
		}
	}
	tw.Flush() //nolint:errcheck // terminal output
	return worse
}
