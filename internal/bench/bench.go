// Package bench implements Seabed's evaluation (§6): one driver per table
// and figure of the paper, plus links (§6.6's client-link sweep), ablations
// and hedge, shared by cmd/seabed-bench and the repository's testing.B
// benchmarks.
//
// Row counts scale the paper's datasets down by Config.Scale (default
// 10,000×), preserving ratios between datasets; all comparisons report the
// shape of the paper's results (who wins, by what factor, where crossovers
// fall), not absolute seconds. The latency figures print modelled times:
// costmodel.go schedules each run's measured task durations onto the paper's
// cluster, and this package is the only one that does. See README.md, "Paper
// figures: what is substituted", for the substitution notes;
// benchmark/README.md is the wall-clock fleet benchmark.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/planner"
	"seabed/internal/translate"
	"seabed/internal/workload"
)

// Config parameterizes a run.
type Config struct {
	// Scale divides the paper's row counts (default 10,000: 1.75 B rows →
	// 175 k rows). Smaller values mean bigger datasets.
	Scale uint64
	// Workers is the cluster size for experiments that do not sweep it: the
	// cost model's simulated cores and the engine's reducer-bucket count.
	// Defaults to the paper's 100-core cluster for full runs and to
	// engine.DefaultWorkers under Quick, so a quick run partitions
	// group-bys as an unconfigured engine.Config does.
	Workers int
	// Quick shrinks sweeps for use under `go test`.
	Quick bool
	// Trials is the number of runs per measured point (median reported).
	Trials int
	// Seed drives all generators.
	Seed int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 10_000
	}
	if c.Workers == 0 {
		if c.Quick {
			c.Workers = engine.DefaultWorkers
		} else {
			c.Workers = 100 // the paper's default cluster size
		}
	}
	if c.Trials == 0 {
		if c.Quick {
			c.Trials = 1
		} else {
			c.Trials = 3
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Experiment is one runnable paper artifact.
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: cost of basic operations", Table1},
		{"table2", "Table 2: query translation examples", Table2},
		{"table3", "Table 3: ID-list encoding techniques", Table3},
		{"table4", "Table 4: query support categories", Table4},
		{"table5", "Table 5: dataset characteristics and storage", Table5},
		{"fig6", "Figure 6: end-to-end latency vs rows (modelled)", Fig6},
		{"fig7", "Figure 7: server latency vs cores (modelled)", Fig7},
		{"fig8", "Figure 8: ID-list size and modelled latency vs selectivity; OPE overhead", Fig8},
		{"fig9a", "Figure 9a: group-by microbenchmark (modelled)", Fig9a},
		{"fig9bc", "Figure 9b/9c: Big Data Benchmark (modelled)", Fig9bc},
		{"fig10a", "Figure 10a: Ad-Analytics response-time distribution (modelled)", Fig10a},
		{"fig10b", "Figure 10b: SPLASHE storage overhead", Fig10b},
		{"links", "§6.6: client link sensitivity (modelled)", Links},
		{"ablations", "Design ablations (compression site, inflation, codecs, stragglers)", Ablations},
		{"hedge", "Hedged scatter vs a straggling replica (p50/p99, hedged vs unhedged)", Hedge},
	}
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// median returns the median of the measured durations.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// seconds renders a duration in seconds with ms resolution.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.4fs", d.Seconds())
}

// --- shared fixtures, cached across experiments within one process ---

type synthKey struct {
	rows    int
	groups  int
	workers int
	modes   string
}

var (
	fixMu      sync.Mutex
	synthCache = map[synthKey]*client.Proxy{}
)

// syntheticProxy builds (and caches) a proxy with the §6.1 microbenchmark
// table uploaded in the given modes.
func syntheticProxy(cfg Config, rows, groups int, modes ...translate.Mode) (*client.Proxy, error) {
	key := synthKey{rows: rows, groups: groups, workers: cfg.Workers}
	for _, m := range modes {
		key.modes += m.String()
	}
	fixMu.Lock()
	if p, ok := synthCache[key]; ok {
		fixMu.Unlock()
		return p, nil
	}
	fixMu.Unlock()

	cluster := engine.NewCluster(engine.Config{Workers: cfg.Workers, Seed: uint64(cfg.Seed)})
	proxy, err := client.NewProxy([]byte("seabed-bench-master-secret-0123"), cluster)
	if err != nil {
		return nil, err
	}
	proxy.TraceSink = recordTrace
	// One partition per worker keeps per-task fixed costs (bind, slice
	// allocation, GC) small relative to real per-row work at laptop scale.
	proxy.Parts = cfg.Workers
	if _, err := proxy.CreatePlan(workload.SyntheticSchema(max(groups, 2)), workload.SyntheticQueries(), planner.Options{}); err != nil {
		return nil, err
	}
	src, err := workload.Synthetic(rows, groups, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := proxy.Upload(context.Background(), "synth", src, modes...); err != nil {
		return nil, err
	}
	fixMu.Lock()
	synthCache[key] = proxy
	fixMu.Unlock()
	return proxy, nil
}
