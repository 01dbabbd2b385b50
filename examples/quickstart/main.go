// Quickstart: the smallest end-to-end Seabed program, plus a direct tour of
// the ASHE primitive.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"seabed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- The ASHE primitive by hand (§3.1) --------------------------------
	// ASHE ciphertexts add without the key; sums over contiguous rows
	// decrypt with just two PRF evaluations.
	key, err := seabed.NewASHEKey([]byte("0123456789abcdef"))
	if err != nil {
		return err
	}
	sum := key.Encrypt(100, 1) // Enc(100) at row 1
	sum = seabed.ASHEAdd(sum, key.Encrypt(250, 2))
	sum = seabed.ASHEAdd(sum, key.Encrypt(50, 3))
	fmt.Printf("ASHE: Enc(100)+Enc(250)+Enc(50) decrypts to %d (ids %s)\n\n",
		key.Decrypt(sum), sum.IDs.String())

	// --- The full system (§4) ---------------------------------------------
	// 1. Create Plan: tell the planner the schema and the expected queries.
	cluster := seabed.NewCluster(seabed.ClusterConfig{Workers: 4})
	proxy, err := seabed.NewProxy([]byte("quickstart-master-secret-012345"), cluster)
	if err != nil {
		return err
	}
	schema := &seabed.Schema{Name: "orders", Columns: []seabed.SchemaColumn{
		{Name: "amount", Type: seabed.Int64, Sensitive: true},
		{Name: "region", Type: seabed.String, Sensitive: true,
			Cardinality: 3, Values: []string{"east", "west", "north"}},
	}}
	plan, err := proxy.CreatePlan(schema, []string{
		"SELECT SUM(amount) FROM orders WHERE region = 'east'",
	}, seabed.PlannerOptions{})
	if err != nil {
		return err
	}
	fmt.Println("planner chose:")
	for _, name := range plan.Order {
		fmt.Printf("  %-8s -> %v\n", name, plan.Cols[name].PrimaryScheme())
	}

	// 2. Upload Data: plaintext columns are encrypted client-side.
	src, err := seabed.BuildTable("orders", []seabed.Column{
		{Name: "amount", Kind: seabed.U64, U64: []uint64{120, 80, 220, 45, 310}},
		{Name: "region", Kind: seabed.Str, Str: []string{"east", "west", "east", "north", "east"}},
	}, 2)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := proxy.Upload(ctx, "orders", src, seabed.ModeSeabed); err != nil {
		return err
	}

	// 3. Query Data: unmodified SQL; the server never sees plaintext.
	res, err := proxy.Query(ctx, "SELECT SUM(amount) FROM orders WHERE region = 'east'")
	if err != nil {
		return err
	}
	rows, err := res.All()
	if err != nil {
		return err
	}
	fmt.Printf("\nSUM(amount) WHERE region='east' = %s  (expect 650)\n", rows[0].Values[0].Display())
	fmt.Printf("measured: server %v, client %v, total %v\n",
		res.ServerTime, res.ClientTime, res.TotalTime)
	return nil
}
