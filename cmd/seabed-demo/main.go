// Command seabed-demo walks through Seabed's three client requests (§4.1)
// on a small retail dataset: Create Plan, Upload Data, Query Data. It prints
// the planner's scheme choices, the translated query plans, and decrypted
// results with their latency breakdown — a guided tour of the system.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"seabed"
)

func main() {
	rows := flag.Int("rows", 50_000, "dataset size")
	workers := flag.Int("workers", 8, "reducer buckets of the embedded cluster (embedded mode)")
	addr := flag.String("addr", "", "comma-separated addresses of one or more running seabed-servers, dialed as a fleet; empty runs an embedded cluster")
	replicas := flag.Int("replicas", 0, "with -addr: replicate each identifier range on R daemons (failover and healing need R >= 2); 0 means 1, sharding without redundancy")
	hedge := flag.Float64("hedge", 0, "with -replicas: hedge straggler sub-queries to a second replica once this fraction of ranges has completed, e.g. 0.9; 0 disables hedging")
	flag.Parse()
	if *replicas > 0 && *addr == "" {
		fmt.Fprintln(os.Stderr, "seabed-demo: -replicas needs -addr")
		os.Exit(2)
	}
	if err := run(*rows, *workers, *addr, *replicas, *hedge); err != nil {
		fmt.Fprintln(os.Stderr, "seabed-demo:", err)
		os.Exit(1)
	}
}

func run(rows, workers int, addr string, replicas int, hedge float64) error {
	ctx := context.Background()
	// The engine is embedded in this process or a fleet of one or more
	// seabed-server daemons reached over TCP — the rest of the demo is
	// identical.
	var cluster seabed.ClusterBackend
	var where string
	if addr != "" {
		if replicas == 0 {
			replicas = 1
		}
		var list []string
		for _, a := range strings.Split(addr, ",") {
			if a = strings.TrimSpace(a); a != "" {
				list = append(list, a)
			}
		}
		fc, err := seabed.DialFleet(list, seabed.FleetOptions{Replicas: replicas, HedgeQuantile: hedge})
		if err != nil {
			return err
		}
		defer fc.Close()
		cluster = fc
		workers = fc.Workers()
		where = fmt.Sprintf("%d-daemon fleet at %s, %d replicas per range, hedge quantile %v (%d workers total)",
			fc.NumDaemons(), addr, fc.Replicas(), hedge, workers)
		defer func() {
			st := fc.Stats()
			fmt.Printf("\nfleet mitigation counters: %d hedged sub-queries, %d failovers\n", st.Hedges, st.Failovers)
		}()
	} else {
		cluster = seabed.NewCluster(seabed.ClusterConfig{Workers: workers})
		where = fmt.Sprintf("%d workers (embedded)", workers)
	}

	fmt.Println("Seabed demo — big data analytics over encrypted datasets")
	fmt.Printf("dataset: %d rows, cluster: %s\n\n", rows, where)

	// --- 1. Create Plan -------------------------------------------------
	countries := []string{"USA", "Canada", "India", "Chile", "Japan", "Kenya"}
	freqs := []uint64{0, 0, 0, 0, 0, 0}
	rng := rand.New(rand.NewSource(7))
	countryCol := make([]string, rows)
	for i := range countryCol {
		// Skewed: USA and Canada dominate.
		v := 0
		switch r := rng.Float64(); {
		case r < 0.45:
			v = 0
		case r < 0.80:
			v = 1
		default:
			v = 2 + rng.Intn(4)
		}
		countryCol[i] = countries[v]
		freqs[v]++
	}

	sch := &seabed.Schema{Name: "sales", Columns: []seabed.SchemaColumn{
		{Name: "revenue", Type: seabed.Int64, Sensitive: true},
		{Name: "units", Type: seabed.Int64, Sensitive: true},
		{Name: "country", Type: seabed.String, Sensitive: true,
			Cardinality: len(countries), Freqs: freqs, Values: countries},
		{Name: "day", Type: seabed.Int64, Sensitive: true},
		{Name: "store", Type: seabed.Int64, Sensitive: true},
	}}
	samples := []string{
		"SELECT SUM(revenue) FROM sales WHERE country = 'Canada'",
		"SELECT VAR(units) FROM sales",
		"SELECT SUM(revenue) FROM sales WHERE day > 180",
		"SELECT store, SUM(revenue) FROM sales GROUP BY store",
	}

	proxy, err := seabed.NewProxy([]byte("demo-master-secret-0123456789ab"), cluster)
	if err != nil {
		return err
	}
	plan, err := proxy.CreatePlan(sch, samples, seabed.PlannerOptions{})
	if err != nil {
		return err
	}
	fmt.Println("[Create Plan] planner decisions:")
	for _, name := range plan.Order {
		cp := plan.Cols[name]
		extra := ""
		if cp.Square {
			extra += " +squared-column"
		}
		if cp.Splashe != nil {
			extra += fmt.Sprintf(" (d=%d, k=%d, %d splayed measures)",
				cp.Splashe.D, cp.Splashe.K, len(cp.SplayedMeasures))
		}
		fmt.Printf("  %-10s -> %v%s\n", name, cp.PrimaryScheme(), extra)
	}
	for _, warn := range plan.Warnings {
		fmt.Println("  warning:", warn)
	}

	// --- 2. Upload Data --------------------------------------------------
	revenue := make([]uint64, rows)
	units := make([]uint64, rows)
	day := make([]uint64, rows)
	storeID := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		revenue[i] = uint64(rng.Intn(10_000))
		units[i] = uint64(rng.Intn(40))
		day[i] = uint64(rng.Intn(365) + 1)
		storeID[i] = uint64(rng.Intn(12))
	}
	src, err := seabed.BuildTable("sales", []seabed.Column{
		{Name: "revenue", Kind: seabed.U64, U64: revenue},
		{Name: "units", Kind: seabed.U64, U64: units},
		{Name: "country", Kind: seabed.Str, Str: countryCol},
		{Name: "day", Kind: seabed.U64, U64: day},
		{Name: "store", Kind: seabed.U64, U64: storeID},
	}, 1)
	if err != nil {
		return err
	}
	if err := proxy.Upload(ctx, "sales", src, seabed.ModeNoEnc, seabed.ModeSeabed); err != nil {
		return err
	}
	enc, err := proxy.Table("sales", seabed.ModeSeabed)
	if err != nil {
		return err
	}
	plain, err := proxy.Table("sales", seabed.ModeNoEnc)
	if err != nil {
		return err
	}
	fmt.Printf("\n[Upload Data] encrypted table: %d physical columns, %.1f MB on disk (plaintext: %.1f MB)\n",
		len(enc.ColNames()), float64(enc.DiskBytes())/1e6, float64(plain.DiskBytes())/1e6)

	// --- 3. Query Data ---------------------------------------------------
	queries := []struct {
		sql  string
		opts []seabed.QueryOption
	}{
		{"SELECT SUM(revenue) FROM sales WHERE country = 'Canada'", nil},
		{"SELECT SUM(revenue) FROM sales WHERE country = 'Kenya'", nil},
		{"SELECT COUNT(*) FROM sales WHERE country = 'USA'", nil},
		{"SELECT AVG(revenue) FROM sales WHERE day > 180", nil},
		{"SELECT VAR(units) FROM sales", nil},
		{"SELECT store, SUM(revenue) FROM sales GROUP BY store", []seabed.QueryOption{seabed.WithExpectedGroups(12)}},
	}
	fmt.Println("\n[Query Data] Seabed vs NoEnc (results must agree; every query bounded by a 1m deadline):")
	for _, q := range queries {
		opts := append([]seabed.QueryOption{seabed.WithTimeout(time.Minute)}, q.opts...)
		encRes, err := proxy.Query(ctx, q.sql, opts...)
		if err != nil {
			return fmt.Errorf("%s: %v", q.sql, err)
		}
		encRows, err := encRes.All()
		if err != nil {
			return fmt.Errorf("%s: %v", q.sql, err)
		}
		plainRes, err := proxy.Query(ctx, q.sql, append(opts, seabed.WithMode(seabed.ModeNoEnc))...)
		if err != nil {
			return err
		}
		plainRows, err := plainRes.All()
		if err != nil {
			return err
		}
		fmt.Printf("\n  %s\n", q.sql)
		limit := len(encRows)
		if limit > 4 {
			limit = 4
		}
		for i := 0; i < limit; i++ {
			row := encRows[i]
			line := "    "
			if row.Key != nil {
				line += row.Key.Display() + ": "
			}
			for j, v := range row.Values {
				if j > 0 {
					line += ", "
				}
				line += v.Display()
			}
			check := "✓"
			if plainRows[i].Values[0].Display() != row.Values[0].Display() {
				check = "MISMATCH vs NoEnc!"
			}
			fmt.Printf("%s   [%s]\n", line, check)
		}
		if len(encRows) > limit {
			fmt.Printf("    … %d more groups\n", len(encRows)-limit)
		}
		fmt.Printf("    measured: server %.4fs, client %.4fs, total %.4fs (PRF evals: %d)\n",
			encRes.ServerTime.Seconds(), encRes.ClientTime.Seconds(), encRes.TotalTime.Seconds(), encRes.PRFEvals)
	}
	return nil
}
