package server

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// driveTraffic registers a table and runs one aggregate over the wire so the
// request-latency histograms have observations.
func driveTraffic(t *testing.T, addr string) {
	t.Helper()
	conn := dialRaw(t, addr)
	handshake(t, conn)
	tbl, err := store.Build("t", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{1, 2, 3}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := wire.EncodeRegister("t@NoEnc", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgRegister, reg); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgOK {
		t.Fatalf("register: (%v, %v)", mt, err)
	}
	run, err := wire.EncodePlan(&wire.PlanRequest{
		TableRef: "t@NoEnc",
		Plan:     &engine.Plan{Aggs: []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}}},
	}, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgRun, run); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgResult {
		t.Fatalf("run: (%v, %v)", mt, err)
	}
}

// TestDebugHandlerMetrics scrapes /metrics after real traffic and validates
// the exposition — format-level (via obs.ValidateExposition) and the core
// series the observability plane promises.
func TestDebugHandlerMetrics(t *testing.T) {
	srv, addr := startServer(t)
	driveTraffic(t, addr)

	ts := httptest.NewServer(srv.DebugHandler())
	t.Cleanup(ts.Close)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	body := make([]byte, 0, 1<<16)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	fams, err := obs.ValidateExposition(body)
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for name, typ := range map[string]string{
		"seabed_request_seconds":       "histogram",
		"seabed_bytes_in_total":        "counter",
		"seabed_bytes_out_total":       "counter",
		"seabed_requests_total":        "counter",
		"seabed_conns_active":          "gauge",
		"seabed_plan_cache_hits_total": "counter",
	} {
		if got := fams[name]; got != typ {
			t.Errorf("family %s = %q, want %q", name, got, typ)
		}
	}
	// The run we drove must have been observed by the latency histogram.
	text := string(body)
	if !strings.Contains(text, `seabed_request_seconds_count{type="run"} 1`) {
		t.Errorf("run latency not observed:\n%s", text)
	}
	if !strings.Contains(text, `seabed_request_seconds_count{type="register"} 1`) {
		t.Errorf("register latency not observed:\n%s", text)
	}
}

// TestDebugHandlerStats checks the /stats JSON endpoint exposes the stable
// snake_case snapshot.
func TestDebugHandlerStats(t *testing.T) {
	srv, addr := startServer(t)
	driveTraffic(t, addr)

	ts := httptest.NewServer(srv.DebugHandler())
	t.Cleanup(ts.Close)
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		ConnsTotal  uint64  `json:"conns_total"`
		Runs        uint64  `json:"runs"`
		TableCount  int     `json:"table_count"`
		GroupRouted *uint64 `json:"group_routed_rows"`
		Tables      []struct {
			Ref  string `json:"ref"`
			Rows uint64 `json:"rows"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ConnsTotal == 0 || got.Runs != 1 || got.TableCount != 1 {
		t.Fatalf("stats = %+v, want 1 run over 1 table", got)
	}
	if got.GroupRouted == nil || *got.GroupRouted != 0 {
		t.Fatalf("stats carry group_routed_rows %v, want 0 after one ungrouped run", got.GroupRouted)
	}
	if len(got.Tables) != 1 || got.Tables[0].Ref != "t@NoEnc" || got.Tables[0].Rows != 3 {
		t.Fatalf("tables = %+v, want t@NoEnc with 3 rows", got.Tables)
	}
}

// TestStatsJSONKeys pins the snapshot's JSON key paths: the json tags are the
// contract /stats, the SIGUSR1 dump and the fleet rollup share, so a renamed
// field must fail here rather than silently break a reader.
func TestStatsJSONKeys(t *testing.T) {
	st := Stats{
		ConnsTotal: 1, Runs: 1, TableCount: 1,
		Recovery:  durable.RecoveryStats{Tables: 1, Duration: time.Millisecond},
		Residency: store.ResidencyStats{BudgetBytes: 1 << 20},
		Tables:    []TableStat{{Ref: "t@NoEnc", Rows: 3, Parts: 1}},
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				if path != "" {
					k = path + "." + k
				}
				walk(k, e)
			}
		case []any:
			for _, e := range x {
				walk(path+"[]", e)
			}
		default:
			paths = append(paths, path)
		}
	}
	walk("", v)
	slices.Sort(paths)
	want := []string{
		"appends", "canceled", "conns_active", "conns_total", "errors", "failovers",
		"group_routed_rows", "hedged_runs", "plan_cache_hits", "plan_cache_misses",
		"recovery.bytes", "recovery.duration_ns", "recovery.mapped_bytes", "recovery.segments",
		"recovery.tables", "recovery.torn_tails", "recovery.wal_records",
		"registers", "replica_fetch_bytes",
		"residency.budget_bytes", "residency.column_faults", "residency.evicted_bytes",
		"residency.evictions", "residency.resident_bytes",
		"resident_bytes", "runs", "runs_active", "table_count",
		"tables[].bytes", "tables[].failover_runs", "tables[].hedged_runs", "tables[].parts",
		"tables[].pulled_bytes", "tables[].ref", "tables[].rows", "tables[].shipped_bytes",
	}
	if !slices.Equal(paths, want) {
		t.Fatalf("stats JSON key paths\n got %v\nwant %v", paths, want)
	}
}

// TestStatsCountRoutedRows: a group-by whose last run found about one row per
// group per map task buckets its rows on the next run, and the daemon's Stats
// count them — the one place a remote run's bucketed rows are seen.
func TestStatsCountRoutedRows(t *testing.T) {
	srv, addr := startServer(t)
	conn := dialRaw(t, addr)
	handshake(t, conn)
	tbl, err := store.Build("g", []store.Column{
		{Name: "k", Kind: store.U64, U64: []uint64{1, 2, 3, 4}},
		{Name: "v", Kind: store.U64, U64: []uint64{5, 6, 7, 8}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := wire.EncodeRegister("g@NoEnc", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, wire.MsgRegister, reg); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgOK {
		t.Fatalf("register: (%v, %v)", mt, err)
	}
	run, err := wire.EncodePlan(&wire.PlanRequest{
		TableRef: "g@NoEnc",
		Plan: &engine.Plan{GroupBy: &engine.GroupBy{Col: "k"},
			Aggs: []engine.Agg{{Kind: engine.AggPlainSum, Col: "v"}}},
	}, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if err := wire.WriteFrame(conn, wire.MsgRun, run); err != nil {
			t.Fatal(err)
		}
		if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgResult {
			t.Fatalf("run %d: (%v, %v)", i, mt, err)
		}
	}
	// The first run has no last run to go by and keeps per-task tables; the
	// second finds one row per group in the one task, and buckets.
	if got := srv.Stats().GroupRoutedRows; got != 4 {
		t.Fatalf("Stats count %d bucketed rows after two runs, want 4", got)
	}
}
