package bench

import (
	"context"
	"fmt"
	"io"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/planner"
	"seabed/internal/translate"
	"seabed/internal/workload"
)

// Fig9a reproduces Figure 9a: group-by response time vs group count for
// NoEnc, Paillier, Seabed (no inflation), and Seabed-optimized (group
// inflation, §4.5).
func Fig9a(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rows := workload.ScaleRows(1_750_000_000, cfg.Scale)
	groupSweep := []int{10, 100, 1_000, 10_000}
	if cfg.Quick {
		groupSweep = []int{10, 1_000}
	}
	fmt.Fprintf(w, "Figure 9a: modelled group-by response time vs groups (%d rows, %d modelled workers)\n", rows, cfg.Workers)
	fmt.Fprintf(w, "%8s %12s %12s %12s %16s\n", "groups", "NoEnc", "Paillier", "Seabed", "Seabed-opt")
	const sql = "SELECT g, SUM(v) FROM synth GROUP BY g"
	for _, groups := range groupSweep {
		if groups > rows {
			continue
		}
		proxy, err := syntheticProxy(cfg, rows, groups, translate.NoEnc, translate.Seabed, translate.Paillier)
		if err != nil {
			return err
		}
		noenc, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials, client.WithMode(translate.NoEnc), client.WithoutInflation())
		if err != nil {
			return err
		}
		pail, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials, client.WithMode(translate.Paillier), client.WithoutInflation())
		if err != nil {
			return err
		}
		plain, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials, client.WithoutInflation())
		if err != nil {
			return err
		}
		opt, err := medianQuery(proxy, cfg.model(), sql, cfg.Trials, client.WithExpectedGroups(groups))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %12s %12s %12s %16s\n",
			groups, seconds(noenc), seconds(pail), seconds(plain), seconds(opt))
	}
	fmt.Fprintln(w, "(paper shape: few groups hurt unoptimized Seabed; inflation fixes it; Seabed beats Paillier 5-10x)")
	return nil
}

// Fig9bc reproduces Figures 9b/9c: the AmpLab Big Data Benchmark queries,
// server-side time only (§6.7 measured only server cost).
func Fig9bc(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	pages := workload.ScaleRows(90_000_000, cfg.Scale)
	visits := workload.ScaleRows(775_000_000, cfg.Scale)
	q4rows := workload.ScaleRows(194_000_000, cfg.Scale)
	if cfg.Quick {
		pages, visits, q4rows = pages/10, visits/10, q4rows/10
	}
	bdb, err := workload.GenerateBDB(workload.BDBConfig{Pages: pages, Visits: visits, Q4Rows: q4rows, Seed: cfg.Seed})
	if err != nil {
		return err
	}

	cluster := engine.NewCluster(engine.Config{Workers: cfg.Workers, Seed: uint64(cfg.Seed)})
	proxy, err := client.NewProxy([]byte("seabed-bench-master-secret-0123"), cluster)
	if err != nil {
		return err
	}
	proxy.TraceSink = recordTrace
	proxy.Parts = cfg.Workers
	samples := workload.BDBSamples()
	if _, err := proxy.CreatePlan(bdb.RankingsSchema, samples["rankings"], planner.Options{}); err != nil {
		return err
	}
	if _, err := proxy.CreatePlan(bdb.UserVisitsSchema, samples["uservisits"], planner.Options{}); err != nil {
		return err
	}
	if _, err := proxy.CreatePlan(bdb.Q4Phase2Schema, samples["q4phase2"], planner.Options{}); err != nil {
		return err
	}
	modes := []translate.Mode{translate.NoEnc, translate.Seabed, translate.Paillier}
	ctx := context.Background()
	if err := proxy.Upload(ctx, "rankings", bdb.Rankings, modes...); err != nil {
		return err
	}
	if err := proxy.Upload(ctx, "uservisits", bdb.UserVisits, modes...); err != nil {
		return err
	}
	if err := proxy.Upload(ctx, "q4phase2", bdb.Q4Phase2, modes...); err != nil {
		return err
	}

	fmt.Fprintf(w, "Figure 9b/9c: Big Data Benchmark modelled server-side response time (rankings=%d, uservisits=%d, q4=%d rows)\n",
		pages, visits, q4rows)
	fmt.Fprintf(w, "%-5s %12s %12s %12s\n", "query", "NoEnc", "Seabed", "Paillier")
	for _, q := range workload.BDBQueries() {
		noenc, _, err := medianServer(proxy, cfg.model(), q.SQL, cfg.Trials, client.WithMode(translate.NoEnc), client.WithServerOnly())
		if err != nil {
			return fmt.Errorf("%s NoEnc: %v", q.Name, err)
		}
		sbd, _, err := medianServer(proxy, cfg.model(), q.SQL, cfg.Trials, client.WithServerOnly())
		if err != nil {
			return fmt.Errorf("%s Seabed: %v", q.Name, err)
		}
		pail, _, err := medianServer(proxy, cfg.model(), q.SQL, cfg.Trials, client.WithMode(translate.Paillier), client.WithServerOnly())
		if err != nil {
			return fmt.Errorf("%s Paillier: %v", q.Name, err)
		}
		fmt.Fprintf(w, "%-5s %12s %12s %12s\n", q.Name, seconds(noenc), seconds(sbd), seconds(pail))
	}
	fmt.Fprintln(w, "(paper shape: Q1 near-parity with OPE overhead; Q2-Q4 Seabed consistently beats Paillier)")
	return nil
}
