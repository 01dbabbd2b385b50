package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/prf"
	"seabed/internal/translate"
	"seabed/internal/workload"
)

// Ablations covers the design decisions README.md ("Execution engine")
// calls out beyond the paper's own figures: where compression runs, the group-inflation factor,
// range encoding for group-by results, the PRF packing optimization, and
// straggler sensitivity.
func Ablations(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rows := workload.ScaleRows(1_750_000_000, cfg.Scale)
	if cfg.Quick {
		rows = workload.ScaleRows(1_750_000_000, cfg.Scale*10)
	}

	// --- 1. Worker-side vs driver-side compression (§4.5) ---
	fmt.Fprintln(w, "Ablation 1: compression at workers vs driver (sel=50% aggregation)")
	proxy, err := syntheticProxy(cfg, rows, 10, translate.Seabed)
	if err != nil {
		return err
	}
	const sql = "SELECT SUM(v) FROM synth"
	// One run gives both: its map output as held is the shuffle of the
	// driver-side variant, and the model prices the worker-side one from what
	// the same lists really encoded to (workerShuffleBytes).
	_, res, err := medianServer(proxy, cfg.model(), sql, cfg.Trials, client.WithSelectivity(0.5, uint64(cfg.Seed)))
	if err != nil {
		return err
	}
	m := &res.Metrics
	fmt.Fprintf(w, "  at workers: modelled server=%s modelled shuffleBytes=%d\n", seconds(cfg.model().of(m, 0).Server), workerShuffleBytes(m))
	fmt.Fprintf(w, "  at driver:  modelled server=%s shuffleBytes=%d (the map output as held)\n",
		seconds(cfg.model().ofShuffle(m, 0, m.ShuffleBytes).Server), m.ShuffleBytes)
	fmt.Fprintln(w, "  (paper: worker-side wins — parallel compression, less driver bottleneck; the model moves bytes, not the CPU that compresses them)")

	// --- 2. Group-inflation factor sweep (§4.5) ---
	fmt.Fprintln(w, "\nAblation 2: group-inflation factor (10 groups)")
	gproxy, err := syntheticProxy(cfg, rows, 10, translate.Seabed)
	if err != nil {
		return err
	}
	const gsql = "SELECT g, SUM(v) FROM synth GROUP BY g"
	factors := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		factors = []int{1, 4}
	}
	for _, f := range factors {
		opts := client.WithoutInflation()
		if f > 1 {
			opts = client.WithForceInflate(f)
		}
		d, res, err := medianServer(gproxy, cfg.model(), gsql, cfg.Trials, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  inflate=%2d: modelled server=%s reducers=%d modelled shuffle=%s\n",
			f, seconds(d), res.Metrics.ReduceTasks, cfg.model().of(&res.Metrics, 0).Shuffle)
	}

	// --- 3. Range encoding for group-by results (§4.5) ---
	fmt.Fprintln(w, "\nAblation 3: group-by ID-list codec (range encoding bloats sparse lists)")
	for _, codec := range []idlist.Codec{idlist.VBDiff, idlist.RangeVBDiff, idlist.RangeVBDiffDeflateFast} {
		_, res, err := medianServer(gproxy, cfg.model(), gsql, 1,
			client.WithoutInflation(), client.WithCodec(codec))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-34s resultBytes=%d\n", shortCodec(codec.Name()), res.Metrics.ResultBytes)
	}

	// --- 4. PRF block packing (§4.3) ---
	fmt.Fprintln(w, "\nAblation 4: PRF block packing (sequential ids share AES blocks)")
	f := prf.MustNew([]byte("bench-key-16byte"))
	const n = 2_000_000
	var sink uint64
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		sink += f.U64(i)
	}
	seq := time.Since(start) / n
	start = time.Now()
	for i := uint64(0); i < n; i++ {
		sink += f.U64(i * 2654435761)
	}
	rnd := time.Since(start) / n
	_ = sink
	fmt.Fprintf(w, "  sequential: %dns/eval   random: %dns/eval   packing speedup: %.2fx (ideal 2x)\n",
		seq.Nanoseconds(), rnd.Nanoseconds(), float64(rnd)/float64(seq))

	// --- 5. Straggler sensitivity (§6.2) ---
	fmt.Fprintln(w, "\nAblation 5: straggler injection (5x slowdown, varying probability)")
	// A 16-worker fixture keeps per-task work large enough to stand out from
	// measurement noise.
	scfg := cfg
	scfg.Workers = 16
	sproxy, err := syntheticProxy(scfg, rows, 10, translate.Seabed)
	if err != nil {
		return err
	}
	src, err := sproxy.Table("synth", translate.Seabed)
	if err != nil {
		return err
	}
	cl := engine.NewCluster(engine.Config{Workers: 16, Seed: uint64(cfg.Seed)})
	for _, p := range []float64{0, 0.05, 0.2} {
		cm := paperModel(16, cfg.Seed)
		cm.StragglerProb, cm.StragglerFactor = p, 5
		var ds []time.Duration
		var tasks int
		for t := 0; t < max(cfg.Trials, 3); t++ {
			res, err := cl.Run(context.Background(), &engine.Plan{Table: src, Aggs: []engine.Agg{{Kind: engine.AggAsheSum, Col: "v_ashe"}}})
			if err != nil {
				return err
			}
			ds = append(ds, cm.of(&res.Metrics, 0).Map)
			tasks = res.Metrics.MapTasks
		}
		fmt.Fprintf(w, "  p=%.2f: modelled map makespan=%s over %d tasks (median of %d)\n",
			p, seconds(median(ds)), tasks, len(ds))
	}
	fmt.Fprintln(w, "  (paper §6.2: stragglers — usually GC — hurt short Seabed/NoEnc jobs most)")
	return nil
}
