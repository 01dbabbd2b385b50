// SPLASHE tour: demonstrates the frequency attack on deterministic
// encryption (Naveed et al. [36]) and how basic and enhanced SPLASHE defeat
// it (§3.3, §3.4) — while keeping aggregation exact.
//
// Run with:
//
//	go run ./examples/splashe-tour
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"seabed"
)

// The §3.4 scenario: a company whose employees are mostly in USA and
// Canada, with a long tail of other countries.
var (
	countries = []string{"USA", "Canada", "India", "Chile", "China", "Japan", "Israel", "UK", "Iraq"}
	freqs     = []uint64{4000, 3500, 220, 180, 260, 140, 120, 200, 80}
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(11))
	var rows int
	var country []string
	salary := []uint64{}
	for v, f := range freqs {
		for i := uint64(0); i < f; i++ {
			country = append(country, countries[v])
			salary = append(salary, uint64(40000+rng.Intn(80000)))
			rows++
		}
	}
	rng.Shuffle(rows, func(a, b int) {
		country[a], country[b] = country[b], country[a]
		salary[a], salary[b] = salary[b], salary[a]
	})

	// --- Step 1: the attack on plain DET ----------------------------------
	fmt.Println("Step 1 — deterministic encryption leaks frequencies")
	dk, err := seabed.NewDETKey([]byte("0123456789abcdef"))
	if err != nil {
		return err
	}
	counts := map[string]uint64{}
	for _, c := range country {
		counts[string(dk.EncryptString(c))]++
	}
	// The adversary observes one count per distinct ciphertext and knows the
	// rough population distribution (auxiliary data).
	observed := make([]uint64, 0, len(counts))
	ctOrder := make([]string, 0, len(counts))
	for ct, n := range counts {
		observed = append(observed, n)
		ctOrder = append(ctOrder, ct)
	}
	guess := seabed.FrequencyAttack(observed, freqs)
	correct := 0
	for i, ct := range ctOrder {
		truth, err := dk.DecryptString([]byte(ct))
		if err != nil {
			return err
		}
		if guess[i] >= 0 && countries[guess[i]] == truth {
			correct++
		}
	}
	fmt.Printf("  attacker decodes %d/%d countries from ciphertext frequencies alone\n\n", correct, len(countries))

	// --- Step 2: enhanced SPLASHE balances the DET column ------------------
	fmt.Println("Step 2 — enhanced SPLASHE")
	layout, err := seabed.PlanEnhancedSplashe(freqs)
	if err != nil {
		return err
	}
	fmt.Printf("  layout: d=%d values, k=%d dedicated columns (%v), threshold=%d\n",
		layout.D, layout.K, layout.Common, layout.Threshold)

	// Run the full system so the balanced column is the real upload.
	cluster := seabed.NewCluster(seabed.ClusterConfig{Workers: 4})
	proxy, err := seabed.NewProxy([]byte("splashe-tour-master-secret-0123"), cluster)
	if err != nil {
		return err
	}
	sch := &seabed.Schema{Name: "emp", Columns: []seabed.SchemaColumn{
		{Name: "salary", Type: seabed.Int64, Sensitive: true},
		{Name: "country", Type: seabed.String, Sensitive: true,
			Cardinality: len(countries), Freqs: freqs, Values: countries},
	}}
	if _, err := proxy.CreatePlan(sch, []string{
		"SELECT SUM(salary) FROM emp WHERE country = 'India'",
	}, seabed.PlannerOptions{}); err != nil {
		return err
	}
	src, err := seabed.BuildTable("emp", []seabed.Column{
		{Name: "salary", Kind: seabed.U64, U64: salary},
		{Name: "country", Kind: seabed.Str, Str: country},
	}, 4)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := proxy.Upload(ctx, "emp", src, seabed.ModeNoEnc, seabed.ModeSeabed); err != nil {
		return err
	}

	// The adversary's view of the uploaded balanced DET column.
	enc, err := proxy.Table("emp", seabed.ModeSeabed)
	if err != nil {
		return err
	}
	balanced := map[string]uint64{}
	for _, part := range enc.Parts {
		col := part.Col("country_det")
		for i := 0; i < col.Len(); i++ {
			balanced[string(col.BytesAt(i))]++
		}
	}
	var min, max uint64 = 1 << 62, 0
	for _, n := range balanced {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	fmt.Printf("  plaintext skew: USA %d vs Iraq %d (50x)\n", freqs[0], freqs[8])
	fmt.Printf("  balanced DET column: %d distinct ciphertexts, frequencies %d..%d (%.2fx spread)\n",
		len(balanced), min, max, float64(max)/float64(min))
	fmt.Println("  USA and Canada do not appear in the column at all — fully hidden")

	// --- Step 3: aggregation stays exact -----------------------------------
	fmt.Println("\nStep 3 — aggregates stay exact despite the dummies")
	for _, c := range []string{"USA", "India", "Iraq"} {
		sql := fmt.Sprintf("SELECT SUM(salary), COUNT(*) FROM emp WHERE country = '%s'", c)
		encRes, err := proxy.Query(ctx, sql)
		if err != nil {
			return err
		}
		encRows, err := encRes.All()
		if err != nil {
			return err
		}
		plainRes, err := proxy.Query(ctx, sql, seabed.WithMode(seabed.ModeNoEnc))
		if err != nil {
			return err
		}
		plainRows, err := plainRes.All()
		if err != nil {
			return err
		}
		match := "✓"
		if encRows[0].Values[0].I64 != plainRows[0].Values[0].I64 ||
			encRows[0].Values[1].I64 != plainRows[0].Values[1].I64 {
			match = "MISMATCH"
		}
		fmt.Printf("  %-7s sum=%-12s count=%-6s [%s]\n", c,
			encRows[0].Values[0].Display(), encRows[0].Values[1].Display(), match)
	}
	return nil
}
