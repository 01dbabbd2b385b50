// Fleet coordinator tests: placement math and epoch persistence as pure unit
// tests, plus loopback end-to-end coverage of failover, hedged scatter, and
// daemon-to-daemon healing against live internal/server daemons (run with
// -race).
package fleet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seabed/internal/engine"
	"seabed/internal/remote"
	"seabed/internal/server"
	"seabed/internal/store"
)

func TestReplicaPlacement(t *testing.T) {
	c := &Cluster{daemons: make([]*remote.RemoteCluster, 5), replicas: 2}
	wantSets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for k, want := range wantSets {
		if got := c.replicaSet(k); !reflect.DeepEqual(got, want) {
			t.Errorf("replicaSet(%d) = %v, want %v", k, got, want)
		}
	}
	// hostedRanges is replicaSet's inverse: chained declustering gives every
	// daemon exactly R ranges, its own plus its left neighbor's.
	wantHosted := [][]int{{0, 4}, {0, 1}, {1, 2}, {2, 3}, {3, 4}}
	for d, want := range wantHosted {
		if got := c.hostedRanges(d); !reflect.DeepEqual(got, want) {
			t.Errorf("hostedRanges(%d) = %v, want %v", d, got, want)
		}
	}

	// R = N degenerates to full replication.
	c = &Cluster{daemons: make([]*remote.RemoteCluster, 3), replicas: 3}
	if got := c.replicaSet(1); !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Errorf("full-replication replicaSet(1) = %v", got)
	}
}

func TestHedgeTrigger(t *testing.T) {
	for _, tc := range []struct {
		q        float64
		replicas int
		n        int
		want     int
	}{
		{0, 2, 3, 0},     // disabled
		{0.5, 2, 3, 2},   // ceil(1.5)
		{0.9, 2, 10, 9},  // ceil(9)
		{0.5, 1, 3, 0},   // no second replica to hedge to
		{0.9, 2, 1, 0},   // single range: nothing to straggle behind
		{0.99, 2, 3, 0},  // rounds to "all done"
		{0.01, 2, 10, 1}, // hedge after the first completion
	} {
		c := &Cluster{hedgeQ: tc.q, replicas: tc.replicas}
		if got := c.hedgeTrigger(tc.n); got != tc.want {
			t.Errorf("hedgeTrigger(q=%v, R=%d, n=%d) = %d, want %d", tc.q, tc.replicas, tc.n, got, tc.want)
		}
	}
}

func TestSplitRangeRef(t *testing.T) {
	for _, tc := range []struct {
		ref  string
		base string
		k    int
		all  bool
		ok   bool
	}{
		{"sales@Seabed#r2", "sales@Seabed", 2, false, true},
		{"sales@Seabed#r0", "sales@Seabed", 0, false, true},
		{"sales@Seabed#all", "sales@Seabed", 0, true, true},
		{"sales@Seabed", "", 0, false, false},
		{"sales@Seabed#r-1", "", 0, false, false},
		{"sales@Seabed#rx", "", 0, false, false},
		{"sales@Seabed#q2", "", 0, false, false},
	} {
		base, k, all, ok := splitRangeRef(tc.ref)
		if base != tc.base || k != tc.k || all != tc.all || ok != tc.ok {
			t.Errorf("splitRangeRef(%q) = (%q, %d, %v, %v), want (%q, %d, %v, %v)",
				tc.ref, base, k, all, ok, tc.base, tc.k, tc.all, tc.ok)
		}
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(nil, Options{}); err == nil {
		t.Error("empty address list accepted")
	}
	if _, err := Dial([]string{"a:1", "b:2"}, Options{Replicas: 3}); err == nil ||
		!strings.Contains(err.Error(), "not a valid placement") {
		t.Errorf("R > N returned %v", err)
	}
	if _, err := Dial([]string{"a:1", "b:2"}, Options{Replicas: 2, HedgeQuantile: 1.5}); err == nil ||
		!strings.Contains(err.Error(), "hedge quantile") {
		t.Errorf("bad quantile returned %v", err)
	}
	if _, err := Dial([]string{"a:1", "a:1"}, Options{Replicas: 2}); err == nil ||
		!strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate address returned %v", err)
	}

	// Against live daemons declaring -shard i/2: the well-ordered list dials,
	// a reordered or wrong-sized one is refused by identity, and one dead
	// endpoint fails the whole dial.
	_, addrs := startFleetDaemons(t, 2, engine.Config{})
	c, err := Dial(addrs, Options{Replicas: 1})
	if err != nil {
		t.Fatalf("well-ordered fleet rejected: %v", err)
	}
	c.Close()
	if _, err := Dial([]string{addrs[1], addrs[0]}, Options{Replicas: 1}); err == nil ||
		!strings.Contains(err.Error(), "declares shard") {
		t.Errorf("reordered fleet returned %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, err := Dial([]string{addrs[0], dead}, Options{Replicas: 1}); err == nil ||
		!strings.Contains(err.Error(), "dial "+dead) {
		t.Errorf("dial with a dead endpoint returned %v", err)
	}
	if _, err := Dial([]string{addrs[0]}, Options{Replicas: 1}); err == nil ||
		!strings.Contains(err.Error(), "declares shard") {
		t.Errorf("wrong fleet size returned %v", err)
	}
}

// daemon is one loopback test daemon, restartable at a fixed address.
type daemon struct {
	addr string
	srv  *server.Server
	done chan error
}

// startDaemonAt serves a fresh engine at addr ("" = pick a port) with shard
// identity i/n.
func startDaemonAt(t *testing.T, addr string, i, n int, cfg engine.Config) *daemon {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	srv := server.New(engine.NewCluster(cfg))
	srv.ShardIndex, srv.ShardCount = i, n
	d := &daemon{addr: ln.Addr().String(), srv: srv, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	t.Cleanup(func() { d.stop() })
	return d
}

// stop kills the daemon (idempotent).
func (d *daemon) stop() {
	if d.srv == nil {
		return
	}
	d.srv.Close() //nolint:errcheck // test teardown
	<-d.done
	d.srv = nil
}

// startFleetDaemons launches n daemons and returns them with their addresses.
func startFleetDaemons(t *testing.T, n int, cfg engine.Config) ([]*daemon, []string) {
	t.Helper()
	daemons := make([]*daemon, n)
	addrs := make([]string, n)
	for i := range daemons {
		daemons[i] = startDaemonAt(t, "", i, n, cfg)
		addrs[i] = daemons[i].addr
	}
	return daemons, addrs
}

// fleetTable builds a 90-row single-column table in 3 parts.
func fleetTable(t *testing.T) *store.Table {
	t.Helper()
	v := make([]uint64, 90)
	for i := range v {
		v[i] = uint64(i % 13)
	}
	tbl, err := store.Build("m", []store.Column{{Name: "v", Kind: store.U64, U64: v}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// countPlan builds a COUNT(*) plan over tbl.
func countPlan(tbl *store.Table) *engine.Plan {
	return &engine.Plan{Table: tbl, Aggs: []engine.Agg{{Kind: engine.AggCount}, {Kind: engine.AggPlainSum, Col: "v"}}}
}

// mustGroups runs pl on backend and returns the result groups.
func mustGroups(t *testing.T, run func(context.Context, *engine.Plan) (*engine.Result, error), pl *engine.Plan) []engine.Group {
	t.Helper()
	res, err := run(context.Background(), pl)
	if err != nil {
		t.Fatal(err)
	}
	return res.View()
}

// TestFleetQueryFailoverAndHeal is the package's acceptance loop: register
// under R=2, query, kill a daemon (queries must keep answering identically
// via failover), then restart it empty, heal it daemon-to-daemon, and verify
// it serves again.
func TestFleetQueryFailoverAndHeal(t *testing.T) {
	daemons, addrs := startFleetDaemons(t, 3, engine.Config{})
	c, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tbl := fleetTable(t)
	ctx := context.Background()
	if err := c.RegisterTable(ctx, "m@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}

	// The in-process engine is the oracle.
	local := engine.NewCluster(engine.Config{Workers: 2})
	want := mustGroups(t, local.Run, countPlan(tbl))

	if got := mustGroups(t, c.Run, countPlan(tbl)); !reflect.DeepEqual(got, want) {
		t.Fatalf("healthy fleet diverged:\n got %+v\nwant %+v", got, want)
	}

	// Kill daemon 1 mid-fleet: queries must fail over, not fail.
	daemons[1].stop()
	if got := mustGroups(t, c.Run, countPlan(tbl)); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-kill fleet diverged:\n got %+v\nwant %+v", got, want)
	}
	st := c.Stats()
	if st.Failovers == 0 {
		t.Error("killing a daemon mid-workload recorded no failovers")
	}
	if !reflect.DeepEqual(st.Down, []int{1}) {
		t.Errorf("down list = %v, want [1]", st.Down)
	}

	// Appends are refused while the fleet is degraded.
	batch, err := store.BuildFrom("m", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{1, 2, 3}}}, 1, 91)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTable(ctx, "m@NoEnc", batch); err == nil ||
		!strings.Contains(err.Error(), "heal") {
		t.Fatalf("append on a degraded fleet returned %v, want a heal-first error", err)
	}

	// Restart daemon 1 empty at the same address and heal it from replicas.
	daemons[1] = startDaemonAt(t, addrs[1], 1, 3, engine.Config{})
	if err := c.Heal(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); len(st.Down) != 0 {
		t.Errorf("down list after heal = %v, want empty", st.Down)
	}

	// The healed daemon serves its ranges again: appends resume, and queries
	// (including ones primaried on daemon 1) agree with the oracle.
	if err := c.AppendTable(ctx, "m@NoEnc", batch); err != nil {
		t.Fatal(err)
	}
	grown, err := tbl.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock() // re-point the plan's table at the grown snapshot
	c.refs[grown] = "m@NoEnc"
	c.mu.Unlock()
	want = mustGroups(t, local.Run, countPlan(grown))
	if got := mustGroups(t, c.Run, countPlan(grown)); !reflect.DeepEqual(got, want) {
		t.Fatalf("healed fleet diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestFleetHealRefusesLyingReplica: the surviving replica of a range the
// healed daemon hosts serves a different table under the range's ref. The
// pull itself is consistent — the replica ships what it lists — but the
// healed daemon's envelope is not the placement's, so Heal refuses with a
// *HealError naming the replica and the ref, and the daemon stays down.
func TestFleetHealRefusesLyingReplica(t *testing.T) {
	daemons, addrs := startFleetDaemons(t, 3, engine.Config{})
	c, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	tbl := fleetTable(t)
	if err := c.RegisterTable(ctx, "m@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	daemons[1].stop()
	if _, err := c.Run(ctx, countPlan(tbl)); err != nil { // fails over, marking daemon 1 down
		t.Fatal(err)
	}

	// Daemon 0, range 0's other replica, now serves ten rows under its ref.
	liar, err := remote.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer liar.Close()
	other, err := store.Build("m", []store.Column{{Name: "v", Kind: store.U64, U64: make([]uint64, 10)}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := liar.RegisterTable(ctx, "m@NoEnc#r0", other); err != nil {
		t.Fatal(err)
	}

	daemons[1] = startDaemonAt(t, addrs[1], 1, 3, engine.Config{})
	err = c.Heal(ctx, 1)
	var he *HealError
	if !errors.As(err, &he) || he.Daemon != 1 || he.Source != addrs[0] || he.Ref != "m@NoEnc#r0" {
		t.Fatalf("heal from a lying replica returned %v, want a *HealError naming %s and m@NoEnc#r0", err, addrs[0])
	}
	if st := c.Stats(); !reflect.DeepEqual(st.Down, []int{1}) {
		t.Fatalf("down list after a refused heal = %v, want [1]", st.Down)
	}
}

// TestFleetHealAfterPartialAppend: a daemon dies during an append that its
// co-replicas applied. The placement does not record the batch, so the
// survivors list envelopes past it; Heal pulls those anyway, queries still
// see only the placement's rows, and the retried append replays onto the
// survivors and the healed daemon alike.
func TestFleetHealAfterPartialAppend(t *testing.T) {
	daemons, addrs := startFleetDaemons(t, 3, engine.Config{})
	c, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	tbl := fleetTable(t)
	if err := c.RegisterTable(ctx, "m@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	local := engine.NewCluster(engine.Config{Workers: 2})
	want := mustGroups(t, local.Run, countPlan(tbl))

	batch, err := store.BuildFrom("m", []store.Column{{Name: "v", Kind: store.U64, U64: []uint64{4, 5, 6}}}, 1, 91)
	if err != nil {
		t.Fatal(err)
	}
	daemons[1].stop()
	if err := c.AppendTable(ctx, "m@NoEnc", batch); err == nil {
		t.Fatal("append with a dead replica succeeded")
	}
	// Whatever the failed append reached, every live replica now holds its
	// slice (a repeated slice is acknowledged as a replay).
	subs := batch.SplitRanges(len(addrs))
	for k, sub := range subs {
		for _, d := range c.replicaSet(k) {
			if d != 1 && sub.NumRows() > 0 {
				if err := c.daemons[d].AppendTable(ctx, rangeRef("m@NoEnc", k), sub); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := mustGroups(t, c.Run, countPlan(tbl)); !reflect.DeepEqual(got, want) { // marks daemon 1 down
		t.Fatalf("fleet after a partial append diverged:\n got %+v\nwant %+v", got, want)
	}

	daemons[1] = startDaemonAt(t, addrs[1], 1, 3, engine.Config{})
	if err := c.Heal(ctx, 1); err != nil {
		t.Fatalf("heal after a partial append: %v", err)
	}
	if got := mustGroups(t, c.Run, countPlan(tbl)); !reflect.DeepEqual(got, want) {
		t.Fatalf("healed fleet diverged before the retry:\n got %+v\nwant %+v", got, want)
	}
	if err := c.AppendTable(ctx, "m@NoEnc", batch); err != nil {
		t.Fatalf("retried append: %v", err)
	}
	grown, err := tbl.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock() // re-point the plan's table at the grown snapshot
	c.refs[grown] = "m@NoEnc"
	c.mu.Unlock()
	want = mustGroups(t, local.Run, countPlan(grown))
	if got := mustGroups(t, c.Run, countPlan(grown)); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet after the retried append diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestFleetHedgesStragglers injects a straggler daemon and verifies the
// hedged scatter re-issues its range to the fast replica, with the result
// unchanged.
func TestFleetHedgesStragglers(t *testing.T) {
	// Daemon 0 is slow: every task sleeps. Its primaried range straggles.
	slow := startDaemonAt(t, "", 0, 3, engine.Config{TaskSleep: 300 * time.Millisecond})
	d1 := startDaemonAt(t, "", 1, 3, engine.Config{})
	d2 := startDaemonAt(t, "", 2, 3, engine.Config{})
	addrs := []string{slow.addr, d1.addr, d2.addr}

	c, err := Dial(addrs, Options{Replicas: 2, HedgeQuantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tbl := fleetTable(t)
	ctx := context.Background()
	if err := c.RegisterTable(ctx, "m@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	local := engine.NewCluster(engine.Config{Workers: 2})
	want := mustGroups(t, local.Run, countPlan(tbl))

	start := time.Now()
	got := mustGroups(t, c.Run, countPlan(tbl))
	elapsed := time.Since(start)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged run diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := c.Stats(); st.Hedges == 0 {
		t.Errorf("straggler run recorded no hedges (took %v)", elapsed)
	}
	if len(c.Stats().Down) != 0 {
		t.Errorf("hedging marked daemons down: %v", c.Stats().Down)
	}
}

// TestEpochPersistAndReload registers through a fleet with an epoch file,
// then re-dials from the file alone and verifies placement — envelopes and
// all — survived the restart.
func TestEpochPersistAndReload(t *testing.T) {
	_, addrs := startFleetDaemons(t, 3, engine.Config{})
	epoch := filepath.Join(t.TempDir(), "fleet-epoch.json")

	c, err := Dial(addrs, Options{Replicas: 2, EpochPath: epoch})
	if err != nil {
		t.Fatal(err)
	}
	tbl := fleetTable(t)
	if err := c.RegisterTable(context.Background(), "m@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	wantRanges := append([]engine.IDRange(nil), c.tables["m@NoEnc"].ranges...)
	c.mu.RUnlock()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Dial(addrs, Options{Replicas: 2, EpochPath: epoch})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.mu.RLock()
	st := re.tables["m@NoEnc"]
	re.mu.RUnlock()
	if st == nil {
		t.Fatal("placement lost across reload")
	}
	if !reflect.DeepEqual(st.ranges, wantRanges) {
		t.Fatalf("reloaded envelopes %v, want %v", st.ranges, wantRanges)
	}
	if re.Stats().Epoch == 0 {
		t.Error("reloaded epoch counter is zero")
	}

	// A mismatched fleet shape refuses the stale file instead of misrouting.
	if _, err := Dial(addrs, Options{Replicas: 3, EpochPath: epoch}); err == nil ||
		!strings.Contains(err.Error(), "re-adopt") {
		t.Errorf("replica-count mismatch returned %v", err)
	}
	// A reordered address list is caught by the daemons' shard identities at
	// dial time, before the epoch file is even consulted.
	if _, err := Dial([]string{addrs[1], addrs[0], addrs[2]}, Options{Replicas: 2, EpochPath: epoch}); err == nil ||
		!strings.Contains(err.Error(), "declares shard") {
		t.Errorf("reordered addresses returned %v", err)
	}
}

// TestAdoptionFromDaemons registers through one coordinator, then dials a
// second with no epoch file: the placement must be adopted from the daemons'
// own per-range inventories.
func TestAdoptionFromDaemons(t *testing.T) {
	_, addrs := startFleetDaemons(t, 3, engine.Config{})
	c, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := fleetTable(t)
	if err := c.RegisterTable(context.Background(), "m@NoEnc", tbl); err != nil {
		t.Fatal(err)
	}
	c.mu.RLock()
	wantRanges := append([]engine.IDRange(nil), c.tables["m@NoEnc"].ranges...)
	c.mu.RUnlock()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	adopted, err := Dial(addrs, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer adopted.Close()
	adopted.mu.RLock()
	st := adopted.tables["m@NoEnc"]
	adopted.mu.RUnlock()
	if st == nil {
		t.Fatal("adoption found no tables")
	}
	if !reflect.DeepEqual(st.ranges, wantRanges) {
		t.Fatalf("adopted envelopes %v, want %v", st.ranges, wantRanges)
	}
}

// TestHealthBoundsStatsBody: a daemon's /stats body is untrusted. One over
// maxStatsBody, or one that is not a stats snapshot, leaves that daemon's
// Stats nil while the wire probe still reports it live, and the rollup
// answers for every daemon.
func TestHealthBoundsStatsBody(t *testing.T) {
	daemons, addrs := startFleetDaemons(t, 3, engine.Config{})
	honest := httptest.NewServer(daemons[0].srv.DebugHandler())
	t.Cleanup(honest.Close)
	oversized := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// Well-formed JSON, so only the size bound refuses it.
		io.WriteString(w, `{"runs":7,"pad":"`+strings.Repeat("x", maxStatsBody)+`"}`) //nolint:errcheck // client may hang up
	}))
	t.Cleanup(oversized.Close)
	malformed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"runs":`) //nolint:errcheck // test server
	}))
	t.Cleanup(malformed.Close)
	debug := []string{honest.Listener.Addr().String(), oversized.Listener.Addr().String(), malformed.Listener.Addr().String()}

	c, err := Dial(addrs, Options{Replicas: 1, DebugAddrs: debug})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Health(context.Background())
	if h.Live != 3 {
		t.Fatalf("live = %d, want 3: %+v", h.Live, h.Daemons)
	}
	if h.Daemons[0].Stats == nil {
		t.Fatal("honest daemon's stats missing from the rollup")
	}
	for _, i := range []int{1, 2} {
		if d := h.Daemons[i]; !d.Live || d.Stats != nil {
			t.Fatalf("daemon %d: live=%v stats=%+v, want live with no stats", i, d.Live, d.Stats)
		}
	}
}
