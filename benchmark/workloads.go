package main

import (
	"context"
	"fmt"
	"time"

	"seabed/internal/planner"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// shape is one query shape the workloads run.
type shape struct {
	name   string
	sql    string
	stream bool // run with client.WithStreaming
}

var shapes = []shape{
	{name: "sel_sum", sql: "SELECT SUM(rev) FROM ev WHERE day > 330"},
	{name: "wide_sum", sql: "SELECT SUM(rev) FROM ev WHERE day > 100"},
	{name: "eq_sum", sql: "SELECT SUM(rev) FROM ev WHERE country = 'USA'"},
	{name: "dense_gb", sql: "SELECT hour, SUM(rev) FROM ev GROUP BY hour"},
	{name: "wide_gb", sql: "SELECT uid, SUM(rev) FROM ev GROUP BY uid"},
	{name: "join_gb", sql: "SELECT tier, SUM(rev) FROM ev JOIN users ON ev.uid = users.uid GROUP BY tier"},
	{name: "scan", sql: "SELECT rev, uid FROM ev WHERE day > 300", stream: true},
}

func shapeByName(name string) shape {
	for _, s := range shapes {
		if s.name == name {
			return s
		}
	}
	panic("benchmark: unknown shape " + name)
}

// evSamples is the sample query set ev is planned from: exactly the shapes.
func evSamples() []string {
	out := make([]string, len(shapes))
	for i, s := range shapes {
		out[i] = s.sql
	}
	return out
}

// workload is one traffic mix. Every client walks seq in a closed loop; seq
// repeats a shape where that keeps the 50th and 90th percentile of the mix
// inside one shape's latency mode instead of in the gap between two, which is
// what makes the percentiles repeatable.
type workload struct {
	name string
	why  string
	seq  []string
	// cold restarts the daemons after the upload with a residency budget of
	// half the scanned columns' bytes, so every scan faults and evicts.
	cold bool
	// ingest finishes the base table by appends during set-up, and turns
	// client 0 into an appender for the measured phase: an open loop that
	// sends one batch every scale.appendEvery whatever the fleet's speed
	// (data arrives at the rate the world produces it), so the table grows
	// by the same number of rows in every run of the same length.
	ingest bool
}

var dashboardSeq = []string{"sel_sum", "wide_sum", "eq_sum", "dense_gb", "wide_sum"}

var workloads = []workload{
	{
		name: "dashboard",
		why:  "filtered sums and a dense group-by on a resident table: map kernels, id-list codecs and PRF decryption do the work",
		seq:  dashboardSeq,
	},
	{
		name: "heavy_groupby",
		why:  "16k-group and join group-bys: per-group partials, coordinator merge, multi-MB result frames, 16k-group decrypt",
		seq:  []string{"wide_gb", "join_gb", "wide_gb"},
	},
	{
		name: "scan_cold",
		why:  "streamed scans over daemons reopened with half the working set as budget: mmap fault-in, eviction, columnar chunks",
		seq:  []string{"scan"},
		cold: true,
	},
	{
		name:   "ingest_mix",
		why:    "one client appends 2,000 rows every 400 ms while the other runs the dashboard mix: encryption, R=2 appends, WAL fsync, compaction",
		seq:    dashboardSeq,
		ingest: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// distinctShapes returns the shapes of seq, each once, in first-use order.
func (w workload) distinctShapes() []string {
	var out []string
	seen := map[string]bool{}
	for _, name := range w.seq {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// scale sizes a run. full is what BENCHMARK.json runs; tiny is the smoke
// test's.
type scale struct {
	rows         int           // ev rows of the static workloads
	ingestUpload int           // ev rows ingest_mix uploads in one piece
	setupBatches int           // batches ingest_mix appends during set-up
	batchRows    int           // rows per appended batch
	appendEvery  time.Duration // the appender's cadence in the measured phase
	maxOps       int           // per-client operation cap; 0 means the clock alone ends the phase
	setups       int           // set-ups per untraced run; setup_s is their median
	ladderReps   int           // repetitions per shape and ladder rung
	warmups      int           // warm-up runs per shape
}

var scales = map[string]scale{
	"full": {rows: 200_000, ingestUpload: 180_000, setupBatches: 10, batchRows: 2000, appendEvery: 400 * time.Millisecond,
		setups: 3, ladderReps: 20, warmups: 3},
	"tiny": {rows: 5000, ingestUpload: 2000, setupBatches: 4, batchRows: 250, appendEvery: 10 * time.Millisecond,
		maxOps: 10, setups: 1, ladderReps: 2, warmups: 1},
}

// dataset is the plaintext a workload runs on, generated from the seed.
type dataset struct {
	seed  uint64
	sc    scale
	ev    *store.Table // uploaded in one piece
	users *store.Table
	// setupBatches is how many batches the set-up appends after the upload
	// (ingest only); the measured phase continues from that index.
	setupBatches int
}

func newDataset(w workload, sc scale, seed uint64) (*dataset, error) {
	d := &dataset{seed: seed, sc: sc}
	r := rng(seed)
	rows := sc.rows
	if w.ingest {
		rows, d.setupBatches = sc.ingestUpload, sc.setupBatches
	}
	var err error
	if d.ev, err = evRows(&r, rows); err != nil {
		return nil, err
	}
	if d.users, err = usersRows(&r); err != nil {
		return nil, err
	}
	return d, nil
}

// batch generates append batch i; the same (seed, i) gives the same rows.
func (d *dataset) batch(i int) (*store.Table, error) {
	r := rng(d.seed ^ (uint64(i)+1)*0xd1342543de82ef95)
	return evRows(&r, d.sc.batchRows)
}

// plainBytes is the plaintext size of n ev rows plus the users table.
func plainBytes(evRows uint64) uint64 { return evRows*plainRowSize + numUsers*16 }

// scanBudget returns the per-daemon residency budget of a cold workload:
// half the bytes of the three physical columns the scan touches in the range
// a daemon serves as primary.
func scanBudget(r *rig) (int64, error) {
	enc, err := r.proxy.Table("ev", translate.Seabed)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, col := range []string{planner.AsheName("rev"), planner.DetName("uid"), planner.OpeName("day")} {
		for _, part := range enc.Parts {
			c := part.Col(col)
			if c == nil {
				return 0, fmt.Errorf("scan budget: ev has no column %q", col)
			}
			total += int64(store.ColumnExtentSize(c))
		}
	}
	return total / numDaemons / 2, nil
}

// setUp brings a workload's system up under dir, from nothing to ready to
// answer: daemons, fleet, plans, the encrypted upload (for ingest also the
// appends that finish the base table, for cold the restart under a budget),
// and the warm-up runs of every shape that fill connection pools, plan caches
// and derived keys. It returns the rig and how long all that took.
func setUp(ctx context.Context, w workload, d *dataset, dir string) (*rig, time.Duration, error) {
	start := time.Now()
	r, err := newRig(dir)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*rig, time.Duration, error) {
		r.close() //nolint:errcheck // already failing
		return nil, 0, fmt.Errorf("set up %s: %w", w.name, err)
	}
	if err := upload(ctx, r.proxy, d.ev, d.users, translate.Seabed); err != nil {
		return fail(err)
	}
	for i := 0; i < d.setupBatches; i++ {
		b, err := d.batch(i)
		if err != nil {
			return fail(err)
		}
		if err := r.proxy.Append(ctx, "ev", b, translate.Seabed); err != nil {
			return fail(err)
		}
	}
	if w.cold {
		budget, err := scanBudget(r)
		if err != nil {
			return fail(err)
		}
		if err := r.restartDaemons(budget); err != nil {
			return fail(err)
		}
	}
	for _, name := range w.distinctShapes() {
		for i := 0; i < d.sc.warmups; i++ {
			if _, err := runQuery(ctx, r.proxy, shapeByName(name), translate.Seabed); err != nil {
				return fail(fmt.Errorf("warm up %s: %w", name, err))
			}
		}
	}
	return r, time.Since(start), nil
}
