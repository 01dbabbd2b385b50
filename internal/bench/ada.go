package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/planner"
	"seabed/internal/translate"
	"seabed/internal/workload"
)

// adaProxy builds the Ad-Analytics workload proxy (cached per process).
var adaCache = map[int]*client.Proxy{}

func adaProxy(cfg Config) (*client.Proxy, int, error) {
	rows := workload.ScaleRows(759_000_000, cfg.Scale)
	if cfg.Quick {
		rows = workload.ScaleRows(759_000_000, cfg.Scale*10)
	}
	fixMu.Lock()
	if p, ok := adaCache[rows]; ok {
		fixMu.Unlock()
		return p, rows, nil
	}
	fixMu.Unlock()
	ada, err := workload.GenerateAdA(workload.AdAConfig{Rows: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, 0, err
	}
	cluster := engine.NewCluster(engine.Config{Workers: cfg.Workers, Seed: uint64(cfg.Seed)})
	proxy, err := client.NewProxy([]byte("seabed-bench-master-secret-0123"), cluster)
	if err != nil {
		return nil, 0, err
	}
	proxy.TraceSink = recordTrace
	proxy.Parts = cfg.Workers
	if _, err := proxy.CreatePlan(ada.Schema, workload.AdASamples(), planner.Options{MaxStorageOverhead: 10}); err != nil {
		return nil, 0, err
	}
	if err := proxy.Upload(context.Background(), "ada", ada.Table,
		translate.NoEnc, translate.Seabed, translate.Paillier); err != nil {
		return nil, 0, err
	}
	fixMu.Lock()
	adaCache[rows] = proxy
	fixMu.Unlock()
	return proxy, rows, nil
}

// Fig10a reproduces Figure 10a: the response-time distribution of the
// ad-analytics query set (5 queries per group count in {1,4,8}) for Plain,
// Seabed, and Paillier, plus the §6.6 decryption statistics.
func Fig10a(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	proxy, rows, err := adaProxy(cfg)
	if err != nil {
		return err
	}
	queries := workload.AdAPerfQueries()
	fmt.Fprintf(w, "Figure 10a: Ad-Analytics modelled response times (%d rows, %d modelled workers, median of %d)\n",
		rows, cfg.Workers, cfg.Trials)

	cm := cfg.model()
	times := map[translate.Mode][]time.Duration{}
	var idListBytes, prfEvals, nSeabed uint64
	for _, q := range queries {
		for _, mode := range []translate.Mode{translate.NoEnc, translate.Seabed, translate.Paillier} {
			var ds []time.Duration
			for trial := 0; trial < cfg.Trials; trial++ {
				res, err := proxy.Query(context.Background(), q.SQL,
					client.WithMode(mode), client.WithExpectedGroups(q.Groups))
				if err != nil {
					return fmt.Errorf("%s %v: %v", q.Name, mode, err)
				}
				ds = append(ds, cm.of(&res.Metrics, res.ClientTime).Total)
				if mode == translate.Seabed && trial == 0 {
					idListBytes += uint64(res.Metrics.ResultBytes)
					prfEvals += res.PRFEvals
					nSeabed++
				}
			}
			times[mode] = append(times[mode], median(ds))
		}
	}
	for _, mode := range []translate.Mode{translate.NoEnc, translate.Seabed, translate.Paillier} {
		ts := append([]time.Duration(nil), times[mode]...)
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		fmt.Fprintf(w, "%-9s min=%s p25=%s median=%s p75=%s max=%s\n", mode,
			seconds(ts[0]), seconds(ts[len(ts)/4]), seconds(ts[len(ts)/2]),
			seconds(ts[3*len(ts)/4]), seconds(ts[len(ts)-1]))
	}
	med := func(m translate.Mode) time.Duration {
		ts := append([]time.Duration(nil), times[m]...)
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		return ts[len(ts)/2]
	}
	fmt.Fprintf(w, "Seabed/NoEnc median ratio: %.2fx (paper: 1.08-1.45x, median 1.27x)\n",
		float64(med(translate.Seabed))/float64(med(translate.NoEnc)))
	fmt.Fprintf(w, "Paillier/Seabed median ratio: %.2fx (paper: 6.7x)\n",
		float64(med(translate.Paillier))/float64(med(translate.Seabed)))
	fmt.Fprintf(w, "Avg ID-list result size: %.1f KB/query; avg PRF evals to decrypt: %d (paper: 163.5 KB, ~26k)\n",
		float64(idListBytes)/float64(nSeabed)/1e3, prfEvals/nSeabed)
	return nil
}

// Fig10b reproduces Figure 10b: cumulative SPLASHE storage overhead per
// sensitive dimension, basic vs enhanced.
func Fig10b(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rows := workload.ScaleRows(759_000_000, cfg.Scale)
	ada, err := workload.GenerateAdA(workload.AdAConfig{Rows: rows, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	ov, err := ada.AdASplasheOverheads()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10b: cumulative SPLASHE storage overhead (dims sorted by cardinality)")
	fmt.Fprintf(w, "%-8s %12s %6s %14s %16s\n", "dim", "cardinality", "k", "basic(cum x)", "enhanced(cum x)")
	for _, o := range ov {
		fmt.Fprintf(w, "%-8s %12d %6d %14.1f %16.1f\n", o.Dim, o.Cardinality, o.K, o.CumBasic, o.CumEnhanced)
	}
	// §6.6's headline numbers.
	budget := func(factor float64) (basic, enh int) {
		for _, o := range ov {
			if o.CumBasic <= factor {
				basic++
			}
			if o.CumEnhanced <= factor {
				enh++
			}
		}
		return
	}
	b2, e2 := budget(2)
	b3, e3 := budget(3)
	fmt.Fprintf(w, "Dims encryptable within 2x storage: basic=%d enhanced=%d (paper: 1 vs 2)\n", b2, e2)
	fmt.Fprintf(w, "Dims encryptable within 3x storage: basic=%d enhanced=%d (paper: 3 vs 6)\n", b3, e3)
	return nil
}

// Links reproduces the §6.6 link-sensitivity experiment: the median
// ad-analytics query's result, priced over the three client links by the
// cost model. Absolute network times are reported alongside the percentage
// they would add to the paper's median query (17.8 s): the paper's point is that ID lists are small, so a
// degraded link adds only milliseconds of transfer time that long queries
// amortize. (At laptop scale our queries last milliseconds, so the same
// absolute additions look proportionally huge — the absolute numbers are
// the faithful comparison.)
func Links(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	proxy, rows, err := adaProxy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "§6.6: modelled network cost vs client link (%d rows)\n", rows)
	const sql = "SELECT hour, SUM(m0) FROM ada WHERE hour < 8 GROUP BY hour"
	const paperMedian = 17.8 // seconds, §6.6
	res, err := proxy.Query(context.Background(), sql, client.WithExpectedGroups(8))
	if err != nil {
		return err
	}
	cm := cfg.model()
	baseNet := cm.of(&res.Metrics, res.ClientTime).Network
	for _, l := range []link{linkInCluster, linkWAN100, linkWAN10} {
		cm.ClientLink = l
		net := cm.of(&res.Metrics, res.ClientTime).Network
		extra := net - baseNet
		fmt.Fprintf(w, "%-16s network=%10s result=%6.1fKB  extra vs in-cluster: %8s (+%5.2f%% of the paper's 17.8s median)\n",
			l, net, float64(res.Metrics.ResultBytes)/1e3,
			extra, 100*extra.Seconds()/paperMedian)
	}
	fmt.Fprintln(w, "(paper: +1% at 100Mbps/10ms, +12% at 10Mbps/100ms — ID lists are small)")
	return nil
}
