// Big Data Benchmark example: the AmpLab benchmark (§6.7) — scans with OPE
// predicates, prefix group-bys under DET, a DET equi-join, and the external
// script's phase-2 aggregation — across NoEnc, Seabed, and Paillier.
//
// Run with:
//
//	go run ./examples/bigdatabench [-visits N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"seabed"
)

func main() {
	visits := flag.Int("visits", 30_000, "uservisits rows (rankings and q4 scale along)")
	flag.Parse()
	if err := run(*visits); err != nil {
		log.Fatal(err)
	}
}

func run(visits int) error {
	ctx := context.Background()
	pages := visits / 10
	q4 := visits / 4
	fmt.Printf("AmpLab Big Data Benchmark: rankings=%d uservisits=%d q4phase2=%d\n\n", pages, visits, q4)

	bdb, err := seabed.GenerateBDB(seabed.BDBConfig{Pages: pages, Visits: visits, Q4Rows: q4, Seed: 9})
	if err != nil {
		return err
	}
	cluster := seabed.NewCluster(seabed.ClusterConfig{Workers: 16})
	proxy, err := seabed.NewProxy([]byte("bigdatabench-master-secret-0123"), cluster)
	if err != nil {
		return err
	}
	samples := seabed.BDBSamples()
	for name, sch := range map[string]*seabed.Schema{
		"rankings":   bdb.RankingsSchema,
		"uservisits": bdb.UserVisitsSchema,
		"q4phase2":   bdb.Q4Phase2Schema,
	} {
		if _, err := proxy.CreatePlan(sch, samples[name], seabed.PlannerOptions{}); err != nil {
			return fmt.Errorf("plan %s: %v", name, err)
		}
	}
	modes := []seabed.Mode{seabed.ModeNoEnc, seabed.ModeSeabed, seabed.ModePaillier}
	for name, tbl := range map[string]*seabed.Table{
		"rankings":   bdb.Rankings,
		"uservisits": bdb.UserVisits,
		"q4phase2":   bdb.Q4Phase2,
	} {
		if err := proxy.Upload(ctx, name, tbl, modes...); err != nil {
			return fmt.Errorf("upload %s: %v", name, err)
		}
	}

	fmt.Printf("%-5s %-10s %12s %12s %12s   %s\n", "query", "kind", "NoEnc", "Seabed", "Paillier", "rows/groups")
	for _, q := range seabed.BDBQueries() {
		kind := "aggregate"
		switch q.Name[:2] {
		case "Q1":
			kind = "scan"
		case "Q2", "Q4":
			kind = "group-by"
		case "Q3":
			kind = "join"
		}
		line := fmt.Sprintf("%-5s %-10s", q.Name, kind)
		var resultCount int
		for _, mode := range modes {
			// Measured server-side time, as in §6.7 ("we do not measure
			// the client-side cost of any of the compared systems").
			res, err := proxy.Query(ctx, q.SQL, seabed.WithMode(mode), seabed.WithServerOnly())
			if err != nil {
				return fmt.Errorf("%s %v: %v", q.Name, mode, err)
			}
			line += fmt.Sprintf(" %12v", res.ServerTime)
			resultCount = int(res.Metrics.RowsSelected)
		}
		fmt.Printf("%s   %d\n", line, resultCount)
	}

	// One query end-to-end with decryption, verified against NoEnc.
	fmt.Println("\nverification: Q3A decrypted vs plaintext")
	q3 := seabed.BDBQueries()[6]
	encRes, err := proxy.Query(ctx, q3.SQL)
	if err != nil {
		return err
	}
	encRows, err := encRes.All()
	if err != nil {
		return err
	}
	plainRes, err := proxy.Query(ctx, q3.SQL, seabed.WithMode(seabed.ModeNoEnc))
	if err != nil {
		return err
	}
	plainRows, err := plainRes.All()
	if err != nil {
		return err
	}
	if len(encRows) != len(plainRows) {
		return fmt.Errorf("group counts differ: %d vs %d", len(encRows), len(plainRows))
	}
	mismatches := 0
	for i := range encRows {
		if encRows[i].Values[1].I64 != plainRows[i].Values[1].I64 {
			mismatches++
		}
	}
	fmt.Printf("  %d groups, %d mismatches\n", len(encRows), mismatches)
	if mismatches > 0 {
		return fmt.Errorf("Q3A results diverge")
	}
	return nil
}
