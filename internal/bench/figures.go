package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/translate"
	"seabed/internal/workload"
)

// Fig6 reproduces Figure 6: median end-to-end aggregation latency vs input
// size for NoEnc, Seabed at selectivity 100% and 50% (best/worst case,
// §6.4), and Paillier.
func Fig6(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	paperRows := []uint64{250_000_000, 750_000_000, 1_250_000_000, 1_750_000_000}
	if cfg.Quick {
		paperRows = []uint64{250_000_000, 1_750_000_000}
	}
	fmt.Fprintf(w, "Figure 6: modelled end-to-end latency vs rows (scaled 1/%d, %d modelled workers, median of %d)\n",
		cfg.Scale, cfg.Workers, cfg.Trials)
	fmt.Fprintf(w, "%12s %14s %16s %16s %14s\n", "rows", "NoEnc", "ASHE(sel=100%)", "ASHE(sel=50%)", "Paillier")

	const sql = "SELECT SUM(v) FROM synth"
	for _, pr := range paperRows {
		rows := workload.ScaleRows(pr, cfg.Scale)
		proxy, err := syntheticProxy(cfg, rows, 10, translate.NoEnc, translate.Seabed, translate.Paillier)
		if err != nil {
			return err
		}
		noenc, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials, client.WithMode(translate.NoEnc))
		if err != nil {
			return err
		}
		ashe100, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials)
		if err != nil {
			return err
		}
		ashe50, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials,
			client.WithSelectivity(0.5, uint64(cfg.Seed)))
		if err != nil {
			return err
		}
		pail, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials, client.WithMode(translate.Paillier))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%12d %14s %16s %16s %14s\n",
			rows, seconds(noenc), seconds(ashe100), seconds(ashe50), seconds(pail))
	}
	fmt.Fprintln(w, "(paper shape: NoEnc flat; ASHE grows linearly, sel=50% worst case; Paillier 2 orders slower)")
	return nil
}

// medianQuery runs a query trials times and returns the median modelled
// end-to-end time: cm's server and network times plus the measured client
// time. The mode rides in opts (client.WithMode); the default is
// translate.Seabed.
func medianQuery(p *client.Proxy, cm costModel, sql string, trials int, opts ...client.QueryOption) (time.Duration, error) {
	ds := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		res, err := p.Query(context.Background(), sql, opts...)
		if err != nil {
			return 0, err
		}
		ds = append(ds, cm.of(&res.Metrics, res.ClientTime).Total)
	}
	return median(ds), nil
}

// medianServer runs a query trials times and returns the median modelled
// server time under cm, with the last run's result.
func medianServer(p *client.Proxy, cm costModel, sql string, trials int, opts ...client.QueryOption) (time.Duration, *client.QueryResult, error) {
	ds := make([]time.Duration, 0, trials)
	var last *client.QueryResult
	for i := 0; i < trials; i++ {
		res, err := p.Query(context.Background(), sql, opts...)
		if err != nil {
			return 0, nil, err
		}
		ds = append(ds, cm.of(&res.Metrics, 0).Server)
		last = res
	}
	return median(ds), last, nil
}

// Fig7 reproduces Figure 7: modelled server-side latency vs simulated worker
// count at the full (scaled) 1.75 B-row dataset.
func Fig7(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	workerSweep := []int{1, 2, 4, 8, 16, 32, 64, 100}
	if cfg.Quick {
		workerSweep = []int{2, 8, 32}
	}
	rows := workload.ScaleRows(1_750_000_000, cfg.Scale)
	base, err := syntheticProxy(cfg, rows, 10, translate.NoEnc, translate.Seabed, translate.Paillier)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 7: modelled server latency vs modelled workers (%d rows, median of %d)\n", rows, cfg.Trials)
	fmt.Fprintf(w, "%8s %14s %16s %16s %14s\n", "workers", "NoEnc", "Seabed(100%)", "Seabed(50%)", "Paillier")
	const sql = "SELECT SUM(v) FROM synth"
	for _, workers := range workerSweep {
		proxy := base.WithCluster(engine.NewCluster(engine.Config{Workers: workers, Seed: uint64(cfg.Seed)}))
		cm := paperModel(workers, cfg.Seed)
		noenc, _, err := medianServer(proxy, cm, sql, cfg.Trials, client.WithMode(translate.NoEnc))
		if err != nil {
			return err
		}
		s100, _, err := medianServer(proxy, cm, sql, cfg.Trials)
		if err != nil {
			return err
		}
		s50, _, err := medianServer(proxy, cm, sql, cfg.Trials,
			client.WithSelectivity(0.5, uint64(cfg.Seed)))
		if err != nil {
			return err
		}
		pail, _, err := medianServer(proxy, cm, sql, cfg.Trials, client.WithMode(translate.Paillier))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %14s %16s %16s %14s\n",
			workers, seconds(noenc), seconds(s100), seconds(s50), seconds(pail))
	}
	fmt.Fprintln(w, "(paper shape: NoEnc/Seabed flatten by ~20-50 cores; Paillier stays 2 orders higher)")
	return nil
}

// Fig8 reproduces Figure 8: (a) result size and (b) response time vs
// selectivity for the encoding family, and (c) the OPE selection overhead.
func Fig8(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rows := workload.ScaleRows(1_750_000_000, cfg.Scale)
	sels := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if cfg.Quick {
		sels = []float64{0.1, 0.5, 1.0}
	}
	proxy, err := syntheticProxy(cfg, rows, 10, translate.Seabed)
	if err != nil {
		return err
	}
	codecs := []idlist.Codec{
		idlist.RangeVB,
		idlist.RangeVBDiff,
		idlist.RangeVBDiffDeflateCompact,
		idlist.RangeVBDiffDeflateFast,
		idlist.Default,
	}
	const sql = "SELECT SUM(v) FROM synth"

	fmt.Fprintf(w, "Figure 8a: result size (KB) vs selectivity (%d rows)\n", rows)
	fmt.Fprintf(w, "%6s", "sel%")
	for _, c := range codecs {
		fmt.Fprintf(w, " %18s", shortCodec(c.Name()))
	}
	fmt.Fprintln(w)
	type cell struct {
		bytes, shuffle int
		dur            time.Duration
	}
	grid := make(map[string]map[float64]cell)
	for _, c := range codecs {
		grid[c.Name()] = make(map[float64]cell)
		for _, sel := range sels {
			opts := []client.QueryOption{client.WithCodec(c)}
			if sel < 1 {
				opts = append(opts, client.WithSelectivity(sel, uint64(cfg.Seed)))
			}
			dur, res, err := medianServer(proxy, cfg.model(), sql, cfg.Trials, opts...)
			if err != nil {
				return err
			}
			grid[c.Name()][sel] = cell{bytes: res.Metrics.ResultBytes, shuffle: workerShuffleBytes(&res.Metrics), dur: dur}
		}
	}
	for _, sel := range sels {
		fmt.Fprintf(w, "%6.0f", sel*100)
		for _, c := range codecs {
			fmt.Fprintf(w, " %18.2f", float64(grid[c.Name()][sel].bytes)/1e3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper shape: size peaks near sel=50%, collapses at 100% thanks to range encoding)")

	fmt.Fprintf(w, "\nFigure 8b: modelled server response time (s) vs selectivity\n")
	fmt.Fprintf(w, "%6s", "sel%")
	for _, c := range codecs {
		fmt.Fprintf(w, " %18s", shortCodec(c.Name()))
	}
	fmt.Fprintln(w)
	for _, sel := range sels {
		fmt.Fprintf(w, "%6.0f", sel*100)
		for _, c := range codecs {
			fmt.Fprintf(w, " %18s", seconds(grid[c.Name()][sel].dur))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "modelled worker-compressed shuffle behind those times (KB, default codec):")
	for _, sel := range sels {
		fmt.Fprintf(w, " %.0f%%=%.2f", sel*100, float64(grid[idlist.Default.Name()][sel].shuffle)/1e3)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "\nFigure 8c: aggregation vs +OPE selection (modelled server response time, s)\n")
	fmt.Fprintf(w, "%6s %14s %14s\n", "sel%", "aggregation", "+OPE selection")
	for _, sel := range sels {
		var aggOpts []client.QueryOption
		if sel < 1 {
			aggOpts = append(aggOpts, client.WithSelectivity(sel, uint64(cfg.Seed)))
		}
		agg, _, err := medianServer(proxy, cfg.model(), sql, cfg.Trials, aggOpts...)
		if err != nil {
			return err
		}
		// The o column is uniform in [0, 1e6): a threshold at sel·1e6
		// achieves the same selectivity through an ORE comparison.
		opeSQL := fmt.Sprintf("SELECT SUM(v) FROM synth WHERE o < %d", int(sel*1_000_000))
		ope, _, err := medianServer(proxy, cfg.model(), opeSQL, cfg.Trials)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6.0f %14s %14s\n", sel*100, seconds(agg), seconds(ope))
	}
	fmt.Fprintln(w, "(paper shape: OPE adds a roughly constant comparison overhead on top of aggregation)")
	return nil
}

func shortCodec(name string) string {
	switch name {
	case "ranges+vb":
		return "Ranges&VB"
	case "ranges+vb+diff":
		return "+Diff"
	case "ranges+vb+diff+deflate(compact)":
		return "+Deflate(Compact)"
	case "ranges+vb+diff+deflate(fast)":
		return "+Deflate(Fast)"
	case "vb+diff":
		return "VB+Diff"
	case "adaptive":
		return "Adaptive"
	}
	return name
}
