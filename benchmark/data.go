package main

import (
	"fmt"

	"seabed/internal/schema"
	"seabed/internal/store"
)

// The dataset: a fact table ev and a dimension table users, generated from
// the seed alone. The program under test sees only the generated tables.
const (
	numUIDs      = 16384 // distinct ev.uid values (the wide group-by key)
	numUsers     = 1024  // rows of users; only these uids join
	numTiers     = 4
	numDays      = 365
	numHours     = 24
	plainRowSize = 8 + 8 + 8 + 8 + 3 // rev, hour, uid, day + a 3-letter country
)

var countries = []string{"USA", "IND", "CHN", "BRA", "GBR", "DEU", "JPN", "FRA"}

// rng is splitmix64: tiny, seedable, and identical on every platform.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// sparseUID spreads user k over the 64-bit key space, so the group-by key is
// wide and sparse (no dense index can cover it).
func sparseUID(k int) uint64 { return uint64(k)*0x9e3779b1 + 11 }

var evSchema = &schema.Table{Name: "ev", Columns: []schema.Column{
	{Name: "rev", Type: schema.Int64, Sensitive: true},
	{Name: "hour", Type: schema.Int64, Sensitive: true, Cardinality: numHours},
	{Name: "uid", Type: schema.Int64, Sensitive: true},
	{Name: "day", Type: schema.Int64, Sensitive: true},
	{Name: "country", Type: schema.String, Sensitive: true, Cardinality: len(countries), Values: countries},
}}

var usersSchema = &schema.Table{Name: "users", Columns: []schema.Column{
	{Name: "uid", Type: schema.Int64, Sensitive: true},
	{Name: "tier", Type: schema.Int64, Sensitive: true, Cardinality: numTiers},
}}

// evRows generates n rows of ev. Every column is uniform over its domain, so
// selectivities (and therefore the work per query) differ between seeds only
// by sampling noise.
func evRows(r *rng, n int) (*store.Table, error) {
	rev := make([]uint64, n)
	hour := make([]uint64, n)
	uid := make([]uint64, n)
	day := make([]uint64, n)
	country := make([]string, n)
	for i := 0; i < n; i++ {
		rev[i] = uint64(r.intn(1000))
		hour[i] = uint64(r.intn(numHours))
		uid[i] = sparseUID(r.intn(numUIDs))
		day[i] = uint64(r.intn(numDays))
		country[i] = countries[r.intn(len(countries))]
	}
	t, err := store.Build("ev", []store.Column{
		{Name: "rev", Kind: store.U64, U64: rev},
		{Name: "hour", Kind: store.U64, U64: hour},
		{Name: "uid", Kind: store.U64, U64: uid},
		{Name: "day", Kind: store.U64, U64: day},
		{Name: "country", Kind: store.Str, Str: country},
	}, 1)
	if err != nil {
		return nil, fmt.Errorf("build ev: %w", err)
	}
	return t, nil
}

// usersRows generates the dimension table: the first numUsers uids, each with
// a tier.
func usersRows(r *rng) (*store.Table, error) {
	uid := make([]uint64, numUsers)
	tier := make([]uint64, numUsers)
	for k := range uid {
		uid[k] = sparseUID(k)
		tier[k] = uint64(r.intn(numTiers))
	}
	t, err := store.Build("users", []store.Column{
		{Name: "uid", Kind: store.U64, U64: uid},
		{Name: "tier", Kind: store.U64, U64: tier},
	}, 1)
	if err != nil {
		return nil, fmt.Errorf("build users: %w", err)
	}
	return t, nil
}
