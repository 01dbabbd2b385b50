// Regression example: one-dimensional linear regression over encrypted data
// using client pre-processing (§5, Table 6's LinReg rows) — the client
// uploads x², and x·y as additional ASHE columns at ingest time, and every
// sum the least-squares formulas need is then a pure server-side aggregate.
//
//	slope     = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)
//	intercept = (Σy − slope·Σx) / n
//
// Run with:
//
//	go run ./examples/regression
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"seabed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Synthetic ad spend (x) vs revenue (y): y ≈ 3x + 500 + noise.
	const rows = 20_000
	rng := rand.New(rand.NewSource(5))
	x := make([]uint64, rows)
	y := make([]uint64, rows)
	xx := make([]uint64, rows)
	xy := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		xi := uint64(rng.Intn(1000) + 1)
		yi := 3*xi + 500 + uint64(rng.Intn(101)) - 50
		x[i], y[i] = xi, yi
		// Client pre-processing (CPre): quadratic and cross terms are
		// computed in the trusted domain and encrypted like any measure.
		xx[i] = xi * xi
		xy[i] = xi * yi
	}

	cluster := seabed.NewCluster(seabed.ClusterConfig{Workers: 8})
	proxy, err := seabed.NewProxy([]byte("regression-master-secret-012345"), cluster)
	if err != nil {
		return err
	}
	sch := &seabed.Schema{Name: "spend", Columns: []seabed.SchemaColumn{
		{Name: "x", Type: seabed.Int64, Sensitive: true},
		{Name: "y", Type: seabed.Int64, Sensitive: true},
		{Name: "xx", Type: seabed.Int64, Sensitive: true},
		{Name: "xy", Type: seabed.Int64, Sensitive: true},
	}}
	if _, err := proxy.CreatePlan(sch, []string{
		"SELECT SUM(x), SUM(y), SUM(xx), SUM(xy), COUNT(*) FROM spend",
	}, seabed.PlannerOptions{}); err != nil {
		return err
	}
	src, err := seabed.BuildTable("spend", []seabed.Column{
		{Name: "x", Kind: seabed.U64, U64: x},
		{Name: "y", Kind: seabed.U64, U64: y},
		{Name: "xx", Kind: seabed.U64, U64: xx},
		{Name: "xy", Kind: seabed.U64, U64: xy},
	}, 4)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := proxy.Upload(ctx, "spend", src, seabed.ModeSeabed); err != nil {
		return err
	}

	// One round trip: the server computes five encrypted sums; the client
	// decrypts and finishes the least-squares math.
	res, err := proxy.Query(ctx, "SELECT SUM(x), SUM(y), SUM(xx), SUM(xy), COUNT(*) FROM spend")
	if err != nil {
		return err
	}
	rows2, err := res.All()
	if err != nil {
		return err
	}
	v := rows2[0].Values
	sx, sy, sxx, sxy := float64(v[0].I64), float64(v[1].I64), float64(v[2].I64), float64(v[3].I64)
	n := float64(v[4].I64)

	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept := (sy - slope*sx) / n
	fmt.Printf("linear regression over %d encrypted rows (one round trip):\n", rows)
	fmt.Printf("  slope     = %.4f   (true: 3.0)\n", slope)
	fmt.Printf("  intercept = %.2f  (true: ~500)\n", intercept)
	fmt.Printf("  measured: server %v, client %v\n", res.ServerTime, res.ClientTime)

	if slope < 2.9 || slope > 3.1 {
		return fmt.Errorf("slope %f deviates from ground truth", slope)
	}
	return nil
}
