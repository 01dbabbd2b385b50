// Ad-analytics example: the paper's motivating BI workload (§6.6) on the
// public API — hour-of-day revenue dashboards, anomaly-hunting variance
// queries, and the Paillier baseline comparison.
//
// Run with:
//
//	go run ./examples/adanalytics [-rows N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"seabed"
)

func main() {
	rows := flag.Int("rows", 40_000, "dataset rows")
	flag.Parse()
	if err := run(*rows); err != nil {
		log.Fatal(err)
	}
}

func run(rows int) error {
	ctx := context.Background()
	fmt.Printf("ad-analytics on %d rows (33 dimensions, 18 measures)\n\n", rows)
	ada, err := seabed.GenerateAdA(seabed.AdAConfig{Rows: rows, Seed: 3})
	if err != nil {
		return err
	}
	cluster := seabed.NewCluster(seabed.ClusterConfig{Workers: 16})
	proxy, err := seabed.NewProxy([]byte("adanalytics-master-secret-01234"), cluster)
	if err != nil {
		return err
	}
	plan, err := proxy.CreatePlan(ada.Schema, seabed.AdASamples(),
		seabed.PlannerOptions{MaxStorageOverhead: 10})
	if err != nil {
		return err
	}
	splayed := 0
	for _, cp := range plan.Cols {
		if cp.Splashe != nil {
			splayed++
		}
	}
	fmt.Printf("planner: %d columns, %d SPLASHE dimensions, %d warnings\n",
		len(plan.Order), splayed, len(plan.Warnings))

	if err := proxy.Upload(ctx, "ada", ada.Table,
		seabed.ModeNoEnc, seabed.ModeSeabed, seabed.ModePaillier); err != nil {
		return err
	}
	enc, err := proxy.Table("ada", seabed.ModeSeabed)
	if err != nil {
		return err
	}
	plain, err := proxy.Table("ada", seabed.ModeNoEnc)
	if err != nil {
		return err
	}
	fmt.Printf("storage: plaintext %.1f MB -> Seabed %.1f MB (%.2fx)\n\n",
		float64(plain.DiskBytes())/1e6, float64(enc.DiskBytes())/1e6,
		float64(enc.DiskBytes())/float64(plain.DiskBytes()))

	// Dashboard: revenue by hour across the morning.
	fmt.Println("dashboard: SELECT hour, SUM(m0) WHERE hour < 8 GROUP BY hour")
	res, err := proxy.Query(ctx, "SELECT hour, SUM(m0) FROM ada WHERE hour < 8 GROUP BY hour",
		seabed.WithExpectedGroups(8))
	if err != nil {
		return err
	}
	resRows, err := res.All()
	if err != nil {
		return err
	}
	for _, row := range resRows {
		fmt.Printf("  hour %-2s revenue %s\n", row.Key.Display(), row.Values[1].Display())
	}
	fmt.Printf("  measured: total %v (server %v, client %v)\n\n", res.TotalTime, res.ServerTime, res.ClientTime)

	// The three-system comparison on one query.
	fmt.Println("system comparison: SELECT hour, SUM(m1) WHERE hour < 4 GROUP BY hour")
	for _, mode := range []seabed.Mode{seabed.ModeNoEnc, seabed.ModeSeabed, seabed.ModePaillier} {
		r, err := proxy.Query(ctx, "SELECT hour, SUM(m1) FROM ada WHERE hour < 4 GROUP BY hour",
			seabed.WithMode(mode), seabed.WithExpectedGroups(4))
		if err != nil {
			return err
		}
		rRows, err := r.All()
		if err != nil {
			return err
		}
		fmt.Printf("  %-9v total %v  (groups: %d)\n", mode, r.TotalTime, len(rRows))
	}

	// Anomaly hunting: variance via the client-precomputed squared column.
	fmt.Println("\nanomaly check: SELECT AVG(m0), VAR(m0) — quadratic support via CPre (§5)")
	// m0 was not declared quadratic in the samples; demonstrate the planner
	// feedback loop by re-planning with the variance query included.
	samples := append(seabed.AdASamples(), "SELECT VAR(m0) FROM ada")
	if _, err := proxy.CreatePlan(ada.Schema, samples, seabed.PlannerOptions{MaxStorageOverhead: 10}); err != nil {
		return err
	}
	if err := proxy.Upload(ctx, "ada", ada.Table, seabed.ModeNoEnc, seabed.ModeSeabed); err != nil {
		return err
	}
	r, err := proxy.Query(ctx, "SELECT AVG(m0), VAR(m0) FROM ada")
	if err != nil {
		return err
	}
	rRows, err := r.All()
	if err != nil {
		return err
	}
	check, err := proxy.Query(ctx, "SELECT AVG(m0), VAR(m0) FROM ada", seabed.WithMode(seabed.ModeNoEnc))
	if err != nil {
		return err
	}
	checkRows, err := check.All()
	if err != nil {
		return err
	}
	fmt.Printf("  Seabed: avg=%s var=%s\n", rRows[0].Values[0].Display(), rRows[0].Values[1].Display())
	fmt.Printf("  NoEnc:  avg=%s var=%s\n", checkRows[0].Values[0].Display(), checkRows[0].Values[1].Display())
	return nil
}
