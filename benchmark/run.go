package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef declares one metric the benchmark prints; BENCHMARK.json carries
// the same lists and the smoke test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the fleet sees, measured with tracing off. Every
// workload reports every one of them. In quiet periods their run-to-run
// spread on the 2-core box they were fixed on is 2–5 % (peak_rss_mb up to
// 11 %), but that box's speed shifts by 10–35 % for minutes at a time, so
// every bound is the widest the benchmark contract allows. Judge a change by
// alternating pairs of runs, where such shifts cancel.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"first_row_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	// Exact: the same on every run and seed, so the bound only has to absorb
	// an ingest phase ending one batch earlier or later.
	{"stored_bytes_per_plain_byte", "ratio", "lower", 0.01},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is everything about a run that is not a declared metric: the
// hygiene record, sample counts, and the first few failures.
type runInfo struct {
	Workload   string    `json:"workload"`
	Scale      string    `json:"scale"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Clients    int       `json:"clients"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	LoadAvg1   float64   `json:"loadavg_1m_at_start"`
	Queries    int       `json:"queries"`
	Appends    int       `json:"appends"`
	SetupsS    []float64 `json:"setups_s,omitempty"`
	ErrorShare float64   `json:"error_share"`
	Errors     []string  `json:"errors,omitempty"`
	// TailPercentile is the highest percentile the query sample supports
	// (ten samples beyond it); query_p90_ms is under-sampled when it is 50.
	TailPercentile float64 `json:"tail_percentile"`
}

func newRunInfo(w workload, scaleName string, seed uint64, seconds float64, traced bool) runInfo {
	return runInfo{
		Workload: w.name, Scale: scaleName, Seed: seed, Seconds: seconds, Traced: traced,
		Clients: numClients, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), LoadAvg1: loadAvg1(),
	}
}

// commit names the source the numbers belong to: the checked-out commit, or
// "unknown" where the checkout is not a git repository.
func commit() string {
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(".git/" + ref); err == nil {
				return strings.TrimSpace(string(b))
			}
		}
		return head
	}
	return "unknown"
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var v float64
	if _, err := fmt.Sscan(string(b), &v); err != nil {
		return -1
	}
	return v
}

// prepared is a workload brought up and checked, ready to be measured.
type prepared struct {
	w       workload
	data    *dataset
	mirror  *mirror
	want    map[string]digest
	rig     *rig
	setupsS []float64
}

// prepare generates the dataset, builds the mirror, sets the system up
// `setups` times (keeping the last), and checks every shape's fleet rows
// against the mirror's before anything is timed.
func prepare(ctx context.Context, w workload, sc scale, seed uint64, setups int, workRoot string) (*prepared, error) {
	p := &prepared{w: w}
	var err error
	if p.data, err = newDataset(w, sc, seed); err != nil {
		return nil, err
	}
	if p.mirror, err = newMirror(ctx, p.data.ev, p.data.users); err != nil {
		return nil, err
	}
	for i := 0; i < p.data.setupBatches; i++ {
		b, err := p.data.batch(i)
		if err != nil {
			return nil, err
		}
		if err := p.mirror.appendBatch(ctx, b); err != nil {
			return nil, err
		}
	}
	if p.want, err = p.mirror.expect(ctx, w.distinctShapes()); err != nil {
		return nil, err
	}
	for i := 0; i < setups; i++ {
		if p.rig != nil {
			if err := p.rig.close(); err != nil {
				return nil, err
			}
			p.rig = nil
			// Hand the torn-down fleet's memory back before the next one
			// allocates, so the resident-set peak is one fleet's, not a
			// pile-up that depends on when the collector last ran.
			debug.FreeOSMemory()
		}
		if err := os.MkdirAll(workRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		r, dur, err := setUp(ctx, w, p.data, dir)
		if err != nil {
			os.RemoveAll(dir) //nolint:errcheck // already failing
			return nil, err
		}
		p.rig = r
		p.setupsS = append(p.setupsS, dur.Seconds())
	}
	if err := verify(ctx, p.rig.proxy, p.want); err != nil {
		p.rig.close() //nolint:errcheck // already failing
		return nil, err
	}
	return p, nil
}

// settle re-checks an ingest workload after its last append: the mirror takes
// the same batches and every shape must agree again. Mismatches count as
// failed operations of the phase.
func (p *prepared) settle(ctx context.Context, ph *phase) error {
	if !p.w.ingest {
		return nil
	}
	for i := p.data.setupBatches; i < ph.batches; i++ {
		b, err := p.data.batch(i)
		if err != nil {
			return err
		}
		if err := p.mirror.appendBatch(ctx, b); err != nil {
			return err
		}
	}
	want, err := p.mirror.expect(ctx, p.w.distinctShapes())
	if err != nil {
		return err
	}
	ph.attempted += len(want)
	if err := verify(ctx, p.rig.proxy, want); err != nil {
		ph.fail("after the last append: %v", err)
	}
	p.want = want
	return nil
}

func finish(info *runInfo, ph *phase) result {
	info.Queries, info.Appends = len(ph.queryMs), len(ph.appendMs)
	info.Errors = ph.errs
	info.TailPercentile = highestSupported(len(ph.queryMs))
	if ph.attempted > 0 {
		info.ErrorShare = float64(ph.failed) / float64(ph.attempted)
	}
	return result{Correct: ph.failed == 0, Attempted: max(ph.attempted, 1), Failed: ph.failed, Metrics: map[string]value{}}
}

// runUntraced measures a workload's end-to-end metrics with tracing off.
func runUntraced(ctx context.Context, w workload, scaleName string, seed uint64, seconds float64, workRoot string) (result, runInfo, error) {
	sc := scales[scaleName]
	info := newRunInfo(w, scaleName, seed, seconds, false)
	p, err := prepare(ctx, w, sc, seed, sc.setups, workRoot)
	if err != nil {
		return result{}, info, err
	}
	defer p.rig.close() //nolint:errcheck // temp dir removal is best effort
	ph := measure(ctx, w, p.data, p.rig, p.want, seconds)
	if err := ctx.Err(); err != nil {
		return result{}, info, err
	}
	if err := p.settle(ctx, ph); err != nil {
		return result{}, info, err
	}
	stored, err := p.rig.storedBytes()
	if err != nil {
		return result{}, info, err
	}
	info.SetupsS = p.setupsS
	res := finish(&info, ph)
	if len(ph.queryMs) == 0 {
		return res, info, fmt.Errorf("%s: no query completed: %v", w.name, ph.errs)
	}
	q := sortedCopy(ph.queryMs)
	n := float64(len(q))
	vals := map[string]float64{
		"setup_s":          median(p.setupsS),
		"query_p50_ms":     percentile(q, 50),
		"query_p90_ms":     percentile(q, 90),
		"first_row_p50_ms": percentile(sortedCopy(ph.firstRowMs), 50),
		"queries_per_s":    n / ph.wall.Seconds(),
		"cpu_ms_per_query": ms(ph.cpu) / n,
		"peak_rss_mb":      peakRSSMB(),
		// All daemons' data-dir bytes (segments + WAL, both replicas) over
		// the plaintext bytes uploaded and appended so far.
		"stored_bytes_per_plain_byte": float64(stored) / float64(plainBytes(p.data.ev.NumRows()+uint64(ph.batches*sc.batchRows))),
	}
	for _, def := range endToEnd {
		v, ok := vals[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, info, fmt.Errorf("%s: metric %s was not measured", w.name, def.name)
		}
		res.Metrics[def.name] = value{v, def.unit}
	}
	return res, info, nil
}

// perLayer is what single layers did, from a traced run: the layer ladder,
// micro-probes on artifacts of the run, and exact counters over a measured
// phase. They carry no bound. A layer is named by its package.
var perLayer = []metricDef{
	// The ladder: one translated plan timed at increasing depth; medians,
	// averaged over the workload's mix.
	{name: "sqlparse.parse_us", unit: "us", better: "lower"},
	{name: "translate.translate_us", unit: "us", better: "lower"},
	{name: "engine.run_ms", unit: "ms", better: "lower"},
	{name: "remote.run_ms", unit: "ms", better: "lower"},
	{name: "fleet.run_ms", unit: "ms", better: "lower"},
	{name: "client.decrypt_ms", unit: "ms", better: "lower"},
	{name: "proxy.query_solo_ms", unit: "ms", better: "lower"},
	{name: "remote.overhead_ms", unit: "ms", better: "lower"},
	{name: "fleet.overhead_ms", unit: "ms", better: "lower"},
	{name: "ladder.residual_pct", unit: "%", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "fleet.append_ms", unit: "ms", better: "lower"},
	// Micro-probes.
	{name: "wire.plan_encode_us", unit: "us", better: "lower"},
	{name: "wire.result_encode_us", unit: "us", better: "lower"},
	{name: "wire.result_decode_us", unit: "us", better: "lower"},
	{name: "wire.result_bytes", unit: "B", better: "lower"},
	{name: "wire.chunk_encode_us_per_krow", unit: "us", better: "lower"},
	{name: "wire.chunk_decode_us_per_krow", unit: "us", better: "lower"},
	{name: "engine.merge_ms", unit: "ms", better: "lower"},
	{name: "idlist.decode_us", unit: "us", better: "lower"},
	{name: "idlist.bytes_per_selected_row", unit: "B", better: "lower"},
	{name: "prf.eval_ns", unit: "ns", better: "lower"},
	{name: "client.encrypt_rows_per_s", unit: "1/s", better: "higher"},
	{name: "client.encrypt_bytes_per_row", unit: "B", better: "lower"},
	{name: "client.append_encrypt_ms", unit: "ms", better: "lower"},
	{name: "store.serialize_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "store.read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "durable.register_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "durable.append_ms", unit: "ms", better: "lower"},
	{name: "durable.wal_bytes_per_row", unit: "B", better: "lower"},
	{name: "durable.recovery_ms", unit: "ms", better: "lower"},
	{name: "durable.mapped_bytes", unit: "B", better: "lower"},
	{name: "durable.segments", unit: "count", better: "lower"},
	// Exact counters over the measured phase, per query unless stated.
	{name: "client.prf_evals", unit: "count", better: "lower"},
	{name: "client.rows_out", unit: "count", better: "higher"},
	{name: "engine.rows_scanned", unit: "count", better: "lower"},
	{name: "engine.rows_selected", unit: "count", better: "lower"},
	{name: "engine.result_bytes", unit: "B", better: "lower"},
	{name: "engine.shuffle_bytes", unit: "B", better: "lower"},
	{name: "engine.group_dense_rows", unit: "count", better: "higher"},
	{name: "engine.group_hash_rows", unit: "count", better: "lower"},
	{name: "engine.radix_batches", unit: "count", better: "lower"},
	{name: "engine.column_pins", unit: "count", better: "lower"},
	{name: "server.runs", unit: "count", better: "lower"},
	{name: "server.errors", unit: "count", better: "lower"},
	{name: "server.canceled", unit: "count", better: "lower"},
	{name: "server.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.bytes_in", unit: "B", better: "lower"},
	{name: "server.bytes_out", unit: "B", better: "lower"},
	{name: "store.column_faults", unit: "count", better: "lower"},
	{name: "store.evictions", unit: "count", better: "lower"},
	{name: "store.resident_bytes", unit: "B", better: "lower"},
	{name: "durable.wal_fsyncs", unit: "count", better: "lower"},
	{name: "fleet.hedges", unit: "count", better: "lower"},
	{name: "fleet.failovers", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "go.alloc_mb_per_query", unit: "MB", better: "lower"},
	// Reported only: they vary with how far a timed phase gets, so they
	// cannot hold a bound (see README, "Demoted metrics").
	{name: "proxy.rows_per_s", unit: "1/s", better: "higher"},
	{name: "ingest.append_rows_per_s", unit: "1/s", better: "higher"},
	{name: "ingest.append_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "ingest.append_ack_p90_ms", unit: "ms", better: "lower"},
	{name: "ingest.append_late_ms_max", unit: "ms", better: "lower"},
}

// ladderBudget is the time one shape may spend on the ladder before its
// repetitions are cut short (never below five).
const ladderBudget = 2 * time.Second

// runTraced measures a workload's per-layer metrics: the exact counters over
// a measured phase (half as long as the untraced run's, the same closed
// loop), then the ladder and the probes from one client, with every call into
// a layer recorded as a span and written out at the end.
func runTraced(ctx context.Context, w workload, scaleName string, seed uint64, seconds float64, workRoot, traceDir string) (result, runInfo, error) {
	sc := scales[scaleName]
	info := newRunInfo(w, scaleName, seed, seconds, true)
	p, err := prepare(ctx, w, sc, seed, 1, workRoot)
	if err != nil {
		return result{}, info, err
	}
	defer p.rig.close() //nolint:errcheck // temp dir removal is best effort

	before := snapshot(p.rig)
	ph := measure(ctx, w, p.data, p.rig, p.want, seconds/2)
	sys := snapshot(p.rig).since(before)
	if err := ctx.Err(); err != nil {
		return result{}, info, err
	}
	if err := p.settle(ctx, ph); err != nil {
		return result{}, info, err
	}
	if sys.hedges != 0 || sys.failovers != 0 {
		ph.fail("fleet hedged %d and failed over %d sub-queries; the work is no longer deterministic", sys.hedges, sys.failovers)
	}
	res := finish(&info, ph)
	if len(ph.queryMs) == 0 {
		return res, info, fmt.Errorf("%s: no query completed: %v", w.name, ph.errs)
	}

	rec := newRecorder()
	l, err := newLadder(ctx, p.rig, rec)
	if err != nil {
		return res, info, err
	}
	defer l.close() //nolint:errcheck // loopback teardown

	// Mix-weighted means of the per-shape medians: the expected cost of one
	// query of this workload at each depth.
	weight := map[string]float64{}
	for _, name := range w.seq {
		weight[name] += 1 / float64(len(w.seq))
	}
	vals := map[string]float64{}
	var traced, plain float64
	for _, name := range w.distinctShapes() {
		s := shapeByName(name)
		g, err := l.climb(ctx, s, sc.ladderReps, ladderBudget)
		if err != nil {
			return res, info, err
		}
		pr, err := probeShape(ctx, l, s)
		if err != nil {
			return res, info, err
		}
		k := weight[name]
		vals["sqlparse.parse_us"] += k * median(g.parseUs)
		vals["translate.translate_us"] += k * median(g.translateUs)
		vals["engine.run_ms"] += k * median(g.engineMs)
		vals["remote.run_ms"] += k * median(g.remoteMs)
		vals["fleet.run_ms"] += k * median(g.fleetMs)
		vals["client.decrypt_ms"] += k * median(g.decryptMs)
		vals["proxy.query_solo_ms"] += k * median(g.soloMs)
		vals["ladder.residual_pct"] = max(vals["ladder.residual_pct"], g.residualPct())
		traced += k * median(g.soloMs)
		plain += k * median(g.soloPlainMs)
		vals["wire.plan_encode_us"] += k * pr.planEncodeUs
		vals["wire.result_encode_us"] += k * pr.resultEncodeUs
		vals["wire.result_decode_us"] += k * pr.resultDecodeUs
		vals["wire.result_bytes"] += k * pr.resultBytes
		vals["engine.merge_ms"] += k * pr.mergeMs
		vals["idlist.decode_us"] += k * pr.idlistDecodeUs
		if pr.selectedRows > 0 {
			vals["idlist.bytes_per_selected_row"] += k * pr.idlistBytes / pr.selectedRows
		}
	}
	vals["remote.overhead_ms"] = vals["remote.run_ms"] - vals["engine.run_ms"]
	vals["fleet.overhead_ms"] = vals["fleet.run_ms"] - vals["engine.run_ms"]
	vals["bench.trace_overhead_pct"] = (traced - plain) / plain * 100

	if vals["wire.chunk_encode_us_per_krow"], vals["wire.chunk_decode_us_per_krow"], err = probeChunks(ctx, l); err != nil {
		return res, info, err
	}
	vals["prf.eval_ns"] = probePRF()
	sp, err := probeStorage(ctx, p.data, filepath.Join(p.rig.dir, "probe"))
	if err != nil {
		return res, info, err
	}
	vals["client.encrypt_rows_per_s"] = sp.encryptRowsPerS
	vals["client.encrypt_bytes_per_row"] = sp.encryptBytesPerRow
	vals["client.append_encrypt_ms"] = sp.appendEncryptMs
	vals["store.serialize_mb_per_s"] = sp.serializeMBPerS
	vals["store.read_mb_per_s"] = sp.readMBPerS
	vals["durable.register_mb_per_s"] = sp.registerMBPerS
	vals["durable.append_ms"] = sp.durableAppendMs
	vals["durable.wal_bytes_per_row"] = sp.walBytesPerRow
	vals["durable.recovery_ms"] = sp.recoveryMs
	vals["durable.mapped_bytes"] = sp.mappedBytes
	vals["durable.segments"] = sp.segments

	fleetAppends, err := l.appendProbe(ctx, p.data, ph.batches, probeReps)
	if err != nil {
		return res, info, err
	}
	vals["fleet.append_ms"] = median(fleetAppends)

	n := float64(len(ph.queryMs))
	vals["client.prf_evals"] = float64(ph.prfEvals) / n
	vals["client.rows_out"] = float64(ph.rowsOut) / n
	vals["engine.rows_scanned"] = float64(ph.engine.rowsScanned) / n
	vals["engine.rows_selected"] = float64(ph.engine.rowsSelected) / n
	vals["engine.result_bytes"] = float64(ph.engine.resultBytes) / n
	vals["engine.shuffle_bytes"] = float64(ph.engine.shuffleBytes) / n
	vals["engine.group_dense_rows"] = float64(ph.engine.groupDense) / n
	vals["engine.group_hash_rows"] = float64(ph.engine.groupHash) / n
	vals["engine.radix_batches"] = float64(ph.engine.radixBatches) / n
	vals["engine.column_pins"] = float64(ph.engine.columnPins) / n
	vals["server.runs"] = float64(sys.runs) / n
	vals["server.errors"] = float64(sys.errors)
	vals["server.canceled"] = float64(sys.canceled)
	if lookups := sys.planHits + sys.planMisses; lookups > 0 {
		vals["server.plan_cache_hit_ratio"] = float64(sys.planHits) / float64(lookups)
	}
	vals["server.bytes_in"] = float64(sys.bytesIn) / n
	vals["server.bytes_out"] = float64(sys.bytesOut) / n
	vals["store.column_faults"] = float64(sys.faults) / n
	vals["store.evictions"] = float64(sys.evictions) / n
	vals["store.resident_bytes"] = float64(sys.residentBytes)
	vals["durable.wal_fsyncs"] = float64(sys.walFsyncs)
	vals["fleet.hedges"] = float64(sys.hedges)
	vals["fleet.failovers"] = float64(sys.failovers)
	vals["go.gc_cycles"] = float64(sys.gcCycles)
	vals["go.gc_pause_ms_total"] = float64(sys.gcPauseNs) / 1e6
	vals["go.alloc_mb_per_query"] = float64(sys.allocBytes) / 1e6 / n
	vals["proxy.rows_per_s"] = float64(ph.rowsOut) / ph.wall.Seconds()
	if len(ph.appendMs) > 0 {
		a := sortedCopy(ph.appendMs)
		vals["ingest.append_rows_per_s"] = float64(ph.appendRows) / ph.appendWall.Seconds()
		vals["ingest.append_ack_p50_ms"] = percentile(a, 50)
		vals["ingest.append_ack_p90_ms"] = percentile(a, 90)
		vals["ingest.append_late_ms_max"] = ph.appendLateMs
	}

	for _, def := range perLayer {
		v := vals[def.name] // a counter nothing bumped is a true 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, info, fmt.Errorf("%s: metric %s is not finite", w.name, def.name)
		}
		res.Metrics[def.name] = value{v, def.unit}
	}
	if err := rec.writeJSONL(filepath.Join(traceDir, "trace-"+w.name+".jsonl")); err != nil {
		return res, info, err
	}
	return res, info, nil
}
