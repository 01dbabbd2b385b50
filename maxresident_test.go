// Max-resident end-to-end test: a durable daemon restarted with a residency
// budget far below its table sizes must answer scans and aggregates
// byte-identically to the all-resident daemon it replaced — the disk-to-wire
// columnar path serves tables larger than RAM by faulting columns per query
// and evicting between queries, never by changing results.
package seabed_test

import (
	"net"
	"reflect"
	"testing"

	"seabed"
)

// startBudgetedServer serves a durable seabed-server on addr (":0" picks a
// port) over dir with the given residency budget (0 = unlimited).
func startBudgetedServer(t *testing.T, addr, dir string, budget int64) (string, *seabed.Server, *seabed.DurableStore, func()) {
	t.Helper()
	d, err := seabed.OpenDurableStore(seabed.DurableOptions{
		Dir: dir, Fsync: seabed.FsyncAlways, MaxResidentBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := seabed.NewServer(seabed.NewCluster(seabed.ClusterConfig{Workers: 4}))
	srv.UseDurable(d)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		srv.Close() //nolint:errcheck // racing test teardown
		<-done
		d.Close() //nolint:errcheck // racing test teardown
	}
	t.Cleanup(stop)
	return ln.Addr().String(), srv, d, stop
}

func TestMaxResidentServesLargerThanBudget(t *testing.T) {
	dir := t.TempDir()

	// Seed the directory through an unbudgeted daemon and capture the
	// reference answers while everything is heap-resident.
	addr, _, _, stop := startBudgetedServer(t, "127.0.0.1:0", dir, 0)
	sc, err := seabed.DialCluster(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	proxy := lifecycleProxy(t, sc) // uploads "big" in NoEnc + Seabed modes
	queries := []string{
		aggSQL,
		"SELECT COUNT(*) FROM big",
		"SELECT m FROM big WHERE d > 29", // streamed scan
		"SELECT m FROM big WHERE d > 15", // wider scan: many chunks
	}
	want := make(map[string][]seabed.Row)
	for _, sql := range queries {
		want[sql] = queryRows(t, proxy, sql)
	}
	stop()

	// Restart over the same directory and address with a budget orders of
	// magnitude below the data: every table is now larger than what may stay
	// resident, so queries fault columns in per map task and the manager
	// evicts between pins. The same proxy keeps querying — its pooled
	// sockets died with the daemon and redial the budgeted one.
	const budget = 4096
	_, srv2, d2, _ := startBudgetedServer(t, addr, dir, budget)
	rec := srv2.Stats().Recovery
	if rec.MappedBytes == 0 {
		t.Fatalf("restart mapped no segment bytes: %+v", rec)
	}
	tableBytes := uint64(rec.MappedBytes)
	if tableBytes <= budget*4 {
		t.Fatalf("fixture too small for the test: %d mapped bytes vs %d budget", tableBytes, budget)
	}
	for _, sql := range queries {
		got := queryRows(t, proxy, sql)
		if !reflect.DeepEqual(got, want[sql]) {
			t.Fatalf("%q: budgeted daemon diverged from all-resident answers (%d vs %d rows)",
				sql, len(got), len(want[sql]))
		}
	}

	st := srv2.Stats().Residency
	if st.BudgetBytes != budget {
		t.Fatalf("stats budget = %d, want %d", st.BudgetBytes, budget)
	}
	if st.ColumnFaults == 0 {
		t.Fatal("budgeted daemon answered without faulting a single column — the views were never exercised")
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite %d data bytes under a %d budget: %+v", tableBytes, budget, st)
	}
	// The watermark holds between queries: transient working sets may exceed
	// it, but after eviction the resident estimate must sit far below the
	// table sizes.
	if st.ResidentBytes > tableBytes/2 {
		t.Fatalf("resident bytes %d did not come back toward the %d budget (tables %d)",
			st.ResidentBytes, budget, tableBytes)
	}
	if got := d2.Residency().Stats().BudgetBytes; got != budget {
		t.Fatalf("store-level budget = %d, want %d", got, budget)
	}
}
