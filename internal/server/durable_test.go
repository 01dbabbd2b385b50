package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// durableFixtureTable builds rows worth persisting.
func durableFixtureTable(t *testing.T, startID uint64, rows int) *store.Table {
	t.Helper()
	u := make([]uint64, rows)
	for i := range u {
		u[i] = startID + uint64(i)
	}
	tbl, err := store.BuildFrom("d", []store.Column{{Name: "v", Kind: store.U64, U64: u}}, 2, startID)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestServerDurableRegistryRoundTrip drives the server's registry mutations
// with a durable store attached and checks a second server mounting the
// same directory recovers the registry — the restart path of a
// seabed-server daemon — including replay idempotency across the restart.
func TestServerDurableRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine.NewCluster(engine.Config{Workers: 2}))
	srv.UseDurable(d)

	tbl := durableFixtureTable(t, 1, 100)
	if err := srv.RegisterTable("d#noenc", tbl); err != nil {
		t.Fatal(err)
	}
	batch := durableFixtureTable(t, 101, 40)
	payload, err := wire.EncodeAppend("d#noenc", batch)
	if err != nil {
		t.Fatal(err)
	}
	if typ, resp := srv.handleAppend(payload); typ != wire.MsgOK {
		t.Fatalf("append failed: %s", wire.DecodeError(resp))
	}
	// A replayed batch acks without re-journaling.
	if typ, resp := srv.handleAppend(payload); typ != wire.MsgOK {
		t.Fatalf("replayed append failed: %s", wire.DecodeError(resp))
	}
	want, err := srv.lookup("d#noenc")
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 140 {
		t.Fatalf("registry holds %d rows, want 140", want.NumRows())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh durable store and server over the same directory.
	d2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	srv2 := New(engine.NewCluster(engine.Config{Workers: 2}))
	srv2.UseDurable(d2)
	got, err := srv2.lookup("d#noenc")
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf, gotBuf bytes.Buffer
	if _, err := want.WriteTo(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("recovered registry table is not byte-identical")
	}

	st := srv2.Stats()
	if st.TableCount != 1 || st.ResidentBytes == 0 {
		t.Fatalf("stats miss the recovered table: %+v", st)
	}
	if st.Recovery.Tables != 1 || st.Recovery.WALRecords != 1 || st.Recovery.Duration <= 0 {
		t.Fatalf("recovery stats off (want 1 table, 1 wal record — the replay must not have re-journaled): %+v", st.Recovery)
	}
	// Appends continue past the recovered identifier range.
	payload2, err := wire.EncodeAppend("d#noenc", durableFixtureTable(t, 141, 10))
	if err != nil {
		t.Fatal(err)
	}
	if typ, resp := srv2.handleAppend(payload2); typ != wire.MsgOK {
		t.Fatalf("post-recovery append failed: %s", wire.DecodeError(resp))
	}
}

// TestStatsJSONSurfacesDurability checks the snapshot's JSON encoding — what
// /stats serves and SIGUSR1 dumps — carries the registry, plan-cache and
// recovery counters.
func TestStatsJSONSurfacesDurability(t *testing.T) {
	st := Stats{
		TableCount:      2,
		ResidentBytes:   3 << 20,
		PlanCacheHits:   7,
		PlanCacheMisses: 3,
		Recovery:        durable.RecoveryStats{Tables: 2, Segments: 4, WALRecords: 9, Bytes: 1 << 20, Duration: 1},
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		TableCount      int    `json:"table_count"`
		ResidentBytes   uint64 `json:"resident_bytes"`
		PlanCacheHits   uint64 `json:"plan_cache_hits"`
		PlanCacheMisses uint64 `json:"plan_cache_misses"`
		Recovery        struct {
			Tables     int `json:"tables"`
			WALRecords int `json:"wal_records"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.TableCount != 2 || got.ResidentBytes != 3<<20 || got.PlanCacheHits != 7 || got.PlanCacheMisses != 3 ||
		got.Recovery.Tables != 2 || got.Recovery.WALRecords != 9 {
		t.Fatalf("stats JSON %s decodes to %+v", b, got)
	}
}
