package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
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

// imageOf is tbl's image, the form RegisterTable takes a table in.
func imageOf(t *testing.T, tbl *store.Table) []byte {
	t.Helper()
	img, err := store.AppendImage(nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return img
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
	if err := srv.RegisterTable("d#noenc", imageOf(t, tbl)); err != nil {
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

// TestDurableStoresFrameImages: a durable daemon stores the image an upload
// frame carried, byte for byte — a register frame's as the committed segment
// file, an append frame's as its WAL record's payload — and a compaction
// writes the image of the journaled batches joined. A re-register, a
// compaction and restarts recover the tables the frames carried.
func TestDurableStoresFrameImages(t *testing.T) {
	const ref = "d#noenc"
	base, b1, b2, b3 := durableFixtureTable(t, 1, 100), durableFixtureTable(t, 101, 40),
		durableFixtureTable(t, 141, 10), durableFixtureTable(t, 151, 20)
	replacement, b4 := durableFixtureTable(t, 1, 60), durableFixtureTable(t, 61, 5)
	// One record of b1's size stays in the WAL; a second compacts.
	opts := durable.Options{Dir: t.TempDir(), CompactBytes: int64(8 + len(imageOf(t, b1)) + 1)}

	var d *durable.Store
	var srv *Server
	restart := func() {
		t.Helper()
		if d != nil {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if d, err = durable.Open(opts); err != nil {
			t.Fatal(err)
		}
		srv = New(engine.NewCluster(engine.Config{Workers: 2}))
		srv.UseDurable(d)
	}
	restart()
	defer func() { d.Close() }() //nolint:errcheck // test teardown

	// send delivers tbl in a register or append frame and returns a copy of
	// the frame's image.
	send := func(typ wire.MsgType, tbl *store.Table) []byte {
		t.Helper()
		payload, err := wire.EncodeRegister(ref, tbl)
		if err != nil {
			t.Fatal(err)
		}
		_, img, err := wire.DecodeRegister(payload)
		if err != nil {
			t.Fatal(err)
		}
		img = bytes.Clone(img)
		handle := srv.handleAppend
		if typ == wire.MsgRegister {
			handle = srv.handleRegister
		}
		if mt, resp := handle(payload); mt != wire.MsgOK {
			t.Fatalf("%v of %d rows: %s", typ, tbl.NumRows(), wire.DecodeError(resp))
		}
		return img
	}
	// stored reads what the daemon holds for ref on disk: its committed
	// segment files and its WAL records' payloads.
	stored := func() (segs, records [][]byte) {
		t.Helper()
		paths, _, err := d.Shipment(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		wal, err := os.ReadFile(filepath.Join(filepath.Dir(paths[0]), "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		for len(wal) > 0 {
			n := 8 + int(binary.LittleEndian.Uint32(wal))
			records = append(records, wal[8:n])
			wal = wal[n:]
		}
		return segs, records
	}
	check := func(what string, wantSegs, wantRecords [][]byte) {
		t.Helper()
		segs, records := stored()
		if !slices.EqualFunc(segs, wantSegs, bytes.Equal) {
			t.Fatalf("%s: the %d committed segments are not the %d images expected", what, len(segs), len(wantSegs))
		}
		if !slices.EqualFunc(records, wantRecords, bytes.Equal) {
			t.Fatalf("%s: the %d wal records are not the %d images expected", what, len(records), len(wantRecords))
		}
	}
	// holds checks the registry's table is want, byte for byte.
	holds := func(what string, want *store.Table) {
		t.Helper()
		got, err := srv.lookup(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(imageOf(t, got), imageOf(t, want)) {
			t.Fatalf("%s: the table holds %d rows, not the %d sent", what, got.NumRows(), want.NumRows())
		}
	}
	grow := func(tbl *store.Table, batches ...*store.Table) *store.Table {
		t.Helper()
		tbl = tbl.Snapshot()
		for _, b := range batches {
			if err := tbl.AppendTable(b); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}

	baseImg := send(wire.MsgRegister, base)
	check("register", [][]byte{baseImg}, nil)
	b1Img := send(wire.MsgAppend, b1)
	check("append", [][]byte{baseImg}, [][]byte{b1Img})
	send(wire.MsgAppend, b2) // the WAL passes CompactBytes and compacts
	check("compaction", [][]byte{baseImg, imageOf(t, grow(b1, b2))}, nil)
	b3Img := send(wire.MsgAppend, b3)
	check("append after compaction", [][]byte{baseImg, imageOf(t, grow(b1, b2))}, [][]byte{b3Img})
	restart()
	holds("restart", grow(base, b1, b2, b3))
	check("restart", [][]byte{baseImg, imageOf(t, grow(b1, b2))}, [][]byte{b3Img})

	repImg := send(wire.MsgRegister, replacement)
	check("re-register", [][]byte{repImg}, nil)
	b4Img := send(wire.MsgAppend, b4)
	check("append after re-register", [][]byte{repImg}, [][]byte{b4Img})
	holds("re-register", grow(replacement, b4))
	restart()
	holds("restart after re-register", grow(replacement, b4))
}
