// Query-introspection end-to-end tests: the EXPLAIN / EXPLAIN ANALYZE front
// door, the live-query registry and kill endpoint on both sides of the trust
// boundary, and the fleet health rollup — all through the public facade and
// the HTTP debug planes, the way an operator would reach them.
package seabed_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seabed"
	"seabed/internal/fleet"
	"seabed/internal/obs"
)

// getJSON fetches url and decodes the JSON body into out, reporting the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return readJSON(t, resp, out)
}

// postJSON is getJSON with an empty POST: what /debug/queries/kill requires.
func postJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return readJSON(t, resp, out)
}

func readJSON(t *testing.T, resp *http.Response, out any) int {
	t.Helper()
	defer resp.Body.Close() //nolint:errcheck // test
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", resp.Request.Method, resp.Request.URL, err)
		}
	}
	return resp.StatusCode
}

// waitForActiveQuery polls a debug plane's /debug/queries until an in-flight
// run appears, returning its trace ID.
func waitForActiveQuery(t *testing.T, baseURL string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var pl obs.QueriesPayload
		if getJSON(t, baseURL+"/debug/queries", &pl) == http.StatusOK && len(pl.Active) > 0 {
			return pl.Active[0].TraceID
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no active query ever appeared on /debug/queries")
	return ""
}

// TestExplainRendersPlan is the plain-EXPLAIN gate: the compiled plan renders
// as an operator tree — schemes, kernels, predicted shuffle — without running
// the query.
func TestExplainRendersPlan(t *testing.T) {
	proxy := lifecycleProxy(t, seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))
	res, err := proxy.Query(context.Background(), "EXPLAIN "+aggSQL)
	if err != nil {
		t.Fatal(err)
	}
	text := res.ExplainText()
	for _, want := range []string{
		"EXPLAIN (mode=",
		"column m: scheme=",
		"column d: scheme=",
		"Aggregate [",
		"Filter ",
		"Scan big: 3000 rows",
		"predicted shuffle ≈",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	// Plain EXPLAIN must not execute: no measured counters in the tree and
	// nothing entered the flight recorder's run path as a real query.
	if strings.Contains(text, "rows_scanned=") {
		t.Errorf("plain EXPLAIN carries measured counters (the query ran):\n%s", text)
	}
	// The plan still travels as ordinary rows, so All() works unmodified.
	rows, err := res.All()
	if err != nil || len(rows) == 0 {
		t.Fatalf("EXPLAIN rows: %d, err=%v", len(rows), err)
	}
}

// TestExplainAppliesQueryOptions: EXPLAIN translates a query the way its run
// does, so the plan changes that query options force appear in the tree, and
// EXPLAIN ANALYZE prints the plan it ran.
func TestExplainAppliesQueryOptions(t *testing.T) {
	proxy := lifecycleProxy(t, seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))
	for _, tc := range []struct {
		opt  seabed.QueryOption
		want string
	}{
		{seabed.WithForceInflate(3), "inflate=3"},
		{seabed.WithSelectivity(0.5, 7), "Filter random: prob=0.5 seed=7"},
	} {
		for _, explain := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
			res, err := proxy.Query(context.Background(), explain+"SELECT d, SUM(m) FROM big GROUP BY d", tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if text := res.ExplainText(); !strings.Contains(text, tc.want) {
				t.Errorf("%soutput missing %q:\n%s", explain, tc.want, text)
			}
		}
	}
}

// TestExplainAnalyzeShardedEndToEnd is the acceptance gate: EXPLAIN ANALYZE
// against a 3-shard fleet prints the per-operator tree with real counters
// merged across shards (carried in wire v8 result frames).
func TestExplainAnalyzeShardedEndToEnd(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i], _ = startSlowServer(t, 0, fmt.Sprintf("%d/3", i))
	}
	sc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	proxy := lifecycleProxy(t, sc)

	res, err := proxy.Query(context.Background(), "EXPLAIN ANALYZE "+aggSQL)
	if err != nil {
		t.Fatal(err)
	}
	text := res.ExplainText()
	for _, want := range []string{
		"EXPLAIN ANALYZE (mode=",
		"map_tasks=",
		"selection: ",
		"rows_scanned=3000", // merged across all 3 shards, not one shard's slice
		"batches=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	// The grafted counters are the run's own merged metrics: per-operator
	// counters crossed the wire from every shard and summed.
	if res.Metrics.RowsScanned != 3000 {
		t.Errorf("merged RowsScanned = %d, want 3000", res.Metrics.RowsScanned)
	}
	if res.Metrics.Ops.Batches == 0 {
		t.Errorf("merged per-operator counters are zero; v8 Ops did not cross the wire: %+v", res.Metrics.Ops)
	}
	// The ANALYZE run went through the ordinary query path: it was traced and
	// entered the proxy's flight recorder.
	if proxy.Queries().RecordedCount() == 0 {
		t.Error("ANALYZE run never entered the flight recorder")
	}

	// A grouped ANALYZE (NoEnc: plaintext group keys, no declared bound)
	// shows the group path choice and the lanes/hash split: u64 keys with no
	// bound take the slot table.
	res, err = proxy.Query(context.Background(),
		"EXPLAIN ANALYZE SELECT d, SUM(m) FROM big GROUP BY d", seabed.WithMode(seabed.ModeNoEnc))
	if err != nil {
		t.Fatal(err)
	}
	text = res.ExplainText()
	for _, want := range []string{"GroupBy d: path=open-addressed slot table (u64 keys)\n", "rows grouped: lanes=0 hash=3000", "group_slots="} {
		if !strings.Contains(text, want) {
			t.Errorf("grouped EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if res.Metrics.Ops.GroupDense != 0 || res.Metrics.Ops.GroupHash != 3000 {
		t.Errorf("unbounded u64 rows missed the slot-table counters: %+v", res.Metrics.Ops)
	}

	// The same query over the encrypted table groups by DET ciphertexts, which
	// each daemon codes table-wide: every row's group is its code, in a lane
	// per distinct key (31 of them), and the counters say so.
	res, err = proxy.Query(context.Background(), "EXPLAIN ANALYZE SELECT d, SUM(m) FROM big GROUP BY d")
	if err != nil {
		t.Fatal(err)
	}
	text = res.ExplainText()
	for _, want := range []string{"path=lanes (31 lanes)\n", "rows grouped: lanes=3000 hash=0"} {
		if !strings.Contains(text, want) {
			t.Errorf("encrypted grouped EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if ops := res.Metrics.Ops; ops.GroupDense != 3000 || ops.GroupSlots != 3*31 || ops.GroupTableLen != 31 {
		t.Errorf("coded rows missed the group counters: %+v", ops)
	}

	// Inflated, the same key adds into a lane per code and suffix (§4.5):
	// 31 keys × 3 suffixes, no row hashed.
	res, err = proxy.Query(context.Background(), "EXPLAIN ANALYZE SELECT d, SUM(m) FROM big GROUP BY d", seabed.WithForceInflate(3))
	if err != nil {
		t.Fatal(err)
	}
	text = res.ExplainText()
	for _, want := range []string{"path=lanes (93 lanes)\n", "rows grouped: lanes=3000 hash=0"} {
		if !strings.Contains(text, want) {
			t.Errorf("inflated encrypted grouped EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if ops := res.Metrics.Ops; ops.GroupDense != 3000 || ops.GroupHash != 0 || ops.GroupSlots == 0 || ops.GroupTableLen != 93 {
		t.Errorf("inflated coded rows missed the group counters: %+v", ops)
	}

	// A non-lane aggregate (a plaintext median) groups on the slot table: its
	// rows hash. (On a key codes name, it does too: TestDifferentialCoded's
	// raw cases and paillier/group-by-bounded in TestDifferentialExecutors.)
	res, err = proxy.Query(context.Background(), "EXPLAIN ANALYZE SELECT d, MEDIAN(m) FROM big GROUP BY d", seabed.WithMode(seabed.ModeNoEnc))
	if err != nil {
		t.Fatal(err)
	}
	text = res.ExplainText()
	for _, want := range []string{"path=open-addressed slot table (u64 keys)\n", "rows grouped: lanes=0 hash=3000"} {
		if !strings.Contains(text, want) {
			t.Errorf("median grouped EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if ops := res.Metrics.Ops; ops.GroupHash != 3000 || ops.GroupSlots == 0 || ops.GroupTableLen == 0 {
		t.Errorf("median rows missed the slot-table counters: %+v", ops)
	}
}

// TestTraceShape runs a grouped query and an ungrouped sum through the
// in-process engine and through loopback fleets at R = 1 and R = 2, and checks
// the proxy's trace of each as one clock's intervals: every child of run —
// over a fleet, each "range k @ daemon d" and the coordinator's gather —
// starts and ends inside run, gather starts no earlier than the last range
// ends, and decrypt lies inside query. Orderings only: no duration is compared
// with a constant.
func TestTraceShape(t *testing.T) {
	fleetOf := func(replicas int) seabed.ClusterBackend {
		addrs := make([]string, 3)
		for i := range addrs {
			addrs[i], _ = startSlowServer(t, 0, fmt.Sprintf("%d/3", i))
		}
		fc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fc.Close() })
		return fc
	}
	end := func(sp *seabed.TraceSpan) time.Time { return sp.Start().Add(sp.Duration()) }
	inside := func(root, child, parent *seabed.TraceSpan) {
		t.Helper()
		if child.Start().Before(parent.Start()) || end(child).After(end(parent)) {
			t.Fatalf("span %q [%v, +%v] leaves %q [%v, +%v]:\n%s", child.Name(), child.Start().Sub(root.Start()), child.Duration(),
				parent.Name(), parent.Start().Sub(root.Start()), parent.Duration(), root)
		}
	}
	for _, tc := range []struct {
		name    string
		backend seabed.ClusterBackend
		ranges  int // range spans under run: none in process, one a range at least over a fleet
	}{
		{"in-process", seabed.NewCluster(seabed.ClusterConfig{Workers: 4}), 0},
		{"fleet R=1", fleetOf(1), 3},
		{"fleet R=2", fleetOf(2), 3},
	} {
		proxy := lifecycleProxy(t, tc.backend)
		for _, sql := range []string{"SELECT d, SUM(m) FROM big GROUP BY d", aggSQL} {
			res, err := proxy.Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: %q: %v", tc.name, sql, err)
			}
			root := res.Trace()
			run, dec := root.FindSpan("run"), root.FindSpan("decrypt")
			if run == nil || dec == nil {
				t.Fatalf("%s: %q: no run or decrypt span:\n%s", tc.name, sql, root)
			}
			inside(root, run, root)
			inside(root, dec, root)
			var gather *seabed.TraceSpan
			var lastRange time.Time
			ranges := 0
			for _, c := range run.Children() {
				inside(root, c, run)
				switch {
				case strings.HasPrefix(c.Name(), "range "):
					ranges++
					if end(c).After(lastRange) {
						lastRange = end(c)
					}
				case c.Name() == "gather":
					gather = c
				}
			}
			if tc.ranges == 0 {
				if ranges != 0 || gather != nil {
					t.Fatalf("%s: %q: an in-process run holds range or gather spans:\n%s", tc.name, sql, root)
				}
				continue
			}
			if ranges < tc.ranges || gather == nil {
				t.Fatalf("%s: %q: run holds %d range spans and gather %v, want %d and a gather:\n%s", tc.name, sql, ranges, gather != nil, tc.ranges, root)
			}
			if gather.Start().Before(lastRange) {
				t.Fatalf("%s: %q: gather starts %v before the last range ends:\n%s", tc.name, sql, lastRange.Sub(gather.Start()), root)
			}
		}
	}
}

// TestDebugKillProxyEndToEnd kills a stalled query through the proxy's
// /debug/queries/kill and asserts the caller gets context.Canceled in under
// a second.
func TestDebugKillProxyEndToEnd(t *testing.T) {
	proxy := lifecycleProxy(t, slowCluster(20*time.Millisecond))
	dbg := httptest.NewServer(proxy.DebugHandler())
	t.Cleanup(dbg.Close)

	errc := make(chan error, 1)
	go func() {
		_, err := proxy.Query(context.Background(), aggSQL)
		errc <- err
	}()
	trace := waitForActiveQuery(t, dbg.URL)

	// A GET is not a kill: 405 naming the method that is, and the run lives.
	resp, err := http.Get(dbg.URL + "/debug/queries/kill?trace=" + trace)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET kill returned %d with Allow %q, want 405 with Allow POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	var live obs.QueriesPayload
	getJSON(t, dbg.URL+"/debug/queries", &live)
	if len(live.Active) != 1 || live.Active[0].TraceID != trace || len(errc) != 0 {
		t.Fatalf("a GET to the kill endpoint disturbed the run: active=%+v, returned=%d", live.Active, len(errc))
	}

	killAt := time.Now()
	var kill struct {
		Killed bool `json:"killed"`
	}
	if code := postJSON(t, dbg.URL+"/debug/queries/kill?trace="+trace, &kill); code != http.StatusOK || !kill.Killed {
		t.Fatalf("kill returned status=%d killed=%v", code, kill.Killed)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("killed query returned %v, want context.Canceled", err)
		}
		if elapsed := time.Since(killAt); elapsed > time.Second {
			t.Fatalf("killed query took %v to return, want < 1s", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("killed query never returned")
	}

	// The run left the active set and landed in the flight recorder with its
	// terminal error.
	var pl obs.QueriesPayload
	getJSON(t, dbg.URL+"/debug/queries", &pl)
	if len(pl.Active) != 0 {
		t.Errorf("active set still holds %d runs after the kill", len(pl.Active))
	}
	found := false
	for _, q := range pl.Recent {
		if q.TraceID == trace {
			found = true
			if !q.Done || !strings.Contains(q.Err, "canceled") {
				t.Errorf("recorded trace %s: done=%v err=%q, want done with a canceled error", trace, q.Done, q.Err)
			}
		}
	}
	if !found {
		t.Errorf("killed trace %s never entered the flight recorder", trace)
	}
	// Killing a gone trace is a 404, not a panic.
	if code := postJSON(t, dbg.URL+"/debug/queries/kill?trace="+trace, nil); code != http.StatusNotFound {
		t.Errorf("re-kill of a finished trace returned %d, want 404", code)
	}
	// A malformed trace ID is a 400.
	if code := postJSON(t, dbg.URL+"/debug/queries/kill?trace=xyzzy", nil); code != http.StatusBadRequest {
		t.Errorf("malformed trace returned %d, want 400", code)
	}
}

// TestDebugKillDaemonEndToEnd kills a stalled run through the daemon's own
// debug plane — the untrusted side, where the registry holds plan
// fingerprints, never SQL — and asserts the slot frees and the client errors
// promptly.
func TestDebugKillDaemonEndToEnd(t *testing.T) {
	addr, srv := startSlowServer(t, 20*time.Millisecond, "")
	rc, err := seabed.DialCluster(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	proxy := lifecycleProxy(t, rc)
	dbg := httptest.NewServer(srv.DebugHandler())
	t.Cleanup(dbg.Close)

	errc := make(chan error, 1)
	go func() {
		_, err := proxy.Query(context.Background(), aggSQL)
		errc <- err
	}()
	trace := waitForActiveQuery(t, dbg.URL)

	// The daemon never sees plaintext: its registry entry must be a plan
	// fingerprint, not the SQL text.
	var pl obs.QueriesPayload
	getJSON(t, dbg.URL+"/debug/queries", &pl)
	if len(pl.Active) > 0 && strings.Contains(pl.Active[0].Query, "SELECT") {
		t.Errorf("daemon registry leaked SQL text: %q", pl.Active[0].Query)
	}

	killAt := time.Now()
	var kill struct {
		Killed bool `json:"killed"`
	}
	if code := postJSON(t, dbg.URL+"/debug/queries/kill?trace="+trace, &kill); code != http.StatusOK || !kill.Killed {
		t.Fatalf("daemon kill returned status=%d killed=%v", code, kill.Killed)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("daemon-killed query returned %v, want a canceled error", err)
		}
		if elapsed := time.Since(killAt); elapsed > time.Second {
			t.Fatalf("daemon-killed query took %v to return, want < 1s", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon-killed query never returned")
	}

	// The daemon counted the cancellation and freed the slot …
	if st := drainStats(t, srv); st.Canceled == 0 {
		t.Fatal("daemon never counted the killed run as canceled")
	}
	// … and the freed slot serves the next query.
	if _, err := proxy.Query(context.Background(), aggSQL); err != nil {
		t.Fatalf("query after daemon-side kill: %v", err)
	}
}

// TestFleetHealthRollup boots a 3-daemon fleet with per-daemon debug planes,
// and asserts the coordinator's rollup — reached through the proxy's
// /debug/fleet endpoint — reports all three live with their /stats merged in.
func TestFleetHealthRollup(t *testing.T) {
	addrs := make([]string, 3)
	servers := make([]*seabed.Server, 3)
	dbgAddrs := make([]string, 3)
	for i := range addrs {
		addrs[i], servers[i], _, _ = startFleetDaemon(t, "127.0.0.1:0", "", i, 3, 0)
		ds := httptest.NewServer(servers[i].DebugHandler())
		t.Cleanup(ds.Close)
		dbgAddrs[i] = strings.TrimPrefix(ds.URL, "http://")
	}
	fc, err := seabed.DialFleet(addrs, seabed.FleetOptions{Replicas: 2, DebugAddrs: dbgAddrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	proxy := lifecycleProxy(t, fc)
	if _, err := proxy.Query(context.Background(), aggSQL); err != nil {
		t.Fatal(err)
	}

	pd := httptest.NewServer(proxy.DebugHandler())
	t.Cleanup(pd.Close)
	var h fleet.FleetHealth
	if code := getJSON(t, pd.URL+"/debug/fleet", &h); code != http.StatusOK {
		t.Fatalf("/debug/fleet returned %d", code)
	}
	if h.Live != 3 || len(h.Daemons) != 3 {
		t.Fatalf("fleet health: %d/%d live, want 3/3", h.Live, len(h.Daemons))
	}
	if h.Replicas != 2 {
		t.Errorf("health echoes R=%d, want 2", h.Replicas)
	}
	var runs uint64
	for _, d := range h.Daemons {
		if !d.Live || d.Err != "" {
			t.Errorf("daemon %d (%s): live=%v err=%q", d.Index, d.Addr, d.Live, d.Err)
		}
		if d.Tables == 0 {
			t.Errorf("daemon %d reports no tables after the upload", d.Index)
		}
		if len(d.Ranges) == 0 {
			t.Errorf("daemon %d hosts no ranges under R=2 placement", d.Index)
		}
		if d.Stats == nil {
			t.Errorf("daemon %d: /stats never merged into the rollup", d.Index)
			continue
		}
		runs += d.Stats.Runs
	}
	if runs == 0 {
		t.Error("no daemon counted a run; /stats polling is broken")
	}
	if len(h.StaleRanges) != 0 {
		t.Errorf("healthy fleet reports stale ranges: %+v", h.StaleRanges)
	}

	// Killing one daemon degrades the rollup to 2/3 live without hanging it.
	servers[2].Close() //nolint:errcheck // deliberate kill
	var h2 fleet.FleetHealth
	deadline := time.Now().Add(10 * time.Second)
	for {
		start := time.Now()
		if code := getJSON(t, pd.URL+"/debug/fleet", &h2); code != http.StatusOK {
			t.Fatalf("/debug/fleet after kill returned %d", code)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("health poll with a dead daemon took %v; probe timeout broken", elapsed)
		}
		if h2.Live == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollup never saw the dead daemon: %d/%d live", h2.Live, len(h2.Daemons))
		}
		time.Sleep(50 * time.Millisecond)
	}
	if h2.Daemons[2].Live || h2.Daemons[2].Err == "" {
		t.Errorf("dead daemon reported live=%v err=%q", h2.Daemons[2].Live, h2.Daemons[2].Err)
	}
}
