package bench

import (
	"context"
	"slices"
	"testing"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/translate"
)

// millis is a task-duration list in milliseconds.
func millis(n ...int) []time.Duration {
	out := make([]time.Duration, len(n))
	for i, m := range n {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestMakespan(t *testing.T) {
	if got := makespan(nil, 4); got != 0 {
		t.Fatalf("empty makespan = %v", got)
	}
	if got := makespan(millis(10, 10, 10, 10), 4); got != 10*time.Millisecond {
		t.Fatalf("parallel makespan = %v, want 10ms", got)
	}
	if got := makespan(millis(10, 10, 10, 10), 1); got != 40*time.Millisecond {
		t.Fatalf("serial makespan = %v, want 40ms", got)
	}
	if got := makespan(millis(10, 10, 10), 2); got != 20*time.Millisecond {
		t.Fatalf("2-worker makespan = %v, want 20ms", got)
	}
}

// TestStragglerInjection pins the straggler model as arithmetic on injected
// durations, not on two separately clocked runs: with 16 tasks of 1 ms on 16
// workers, probability 1 and factor 10 stretch the makespan exactly tenfold,
// probability 0 leaves it alone, and a seed fixes which tasks are picked.
func TestStragglerInjection(t *testing.T) {
	tasks := func() []time.Duration {
		d := make([]time.Duration, 16)
		for i := range d {
			d[i] = time.Millisecond
		}
		return d
	}
	base := makespan(tasks(), 16)

	all := tasks()
	injectStragglers(all, 1, 1, 10)
	if got := makespan(all, 16); got != 10*base {
		t.Fatalf("every task a 10x straggler: makespan %v, want %v", got, 10*base)
	}

	none := tasks()
	injectStragglers(none, 1, 0, 10)
	if !slices.Equal(none, tasks()) {
		t.Fatalf("probability 0 changed the durations: %v", none)
	}

	a, b, other := tasks(), tasks(), tasks()
	injectStragglers(a, 7, 0.5, 10)
	injectStragglers(b, 7, 0.5, 10)
	injectStragglers(other, 8, 0.5, 10)
	if !slices.Equal(a, b) {
		t.Fatalf("the same seed picked different stragglers:\n%v\n%v", a, b)
	}
	picked := 0
	for _, d := range a {
		if d != time.Millisecond && d != 10*time.Millisecond {
			t.Fatalf("a task is neither untouched nor a 10x straggler: %v", d)
		}
		if d == 10*time.Millisecond {
			picked++
		}
	}
	if picked == 0 || picked == len(a) || slices.Equal(a, other) {
		t.Fatalf("probability 0.5 picked %d of %d tasks (another seed picked the same: %v)", picked, len(a), slices.Equal(a, other))
	}

	// The model feeds a run's measured durations through the same function,
	// and leaves the run's own copy alone.
	res := synthRun(t, 2_000, 4, "SELECT SUM(v) FROM synth")
	measured := slices.Clone(res.Metrics.MapTaskTimes)
	cm := paperModel(16, 1)
	cm.StragglerProb, cm.StragglerFactor = 1, 10
	got := cm.of(&res.Metrics, 0)
	if res.Metrics.TaskMax <= 0 || got.Map < res.Metrics.TaskMax {
		t.Fatalf("straggler model: map time %v, slowest task %v", got.Map, res.Metrics.TaskMax)
	}
	if !slices.Equal(res.Metrics.MapTaskTimes, measured) {
		t.Fatal("the model rewrote the run's measured task durations")
	}
}

// synthRun uploads a §6.1 table of rows rows in parts partitions and runs one
// query in process, warmed by an untimed first run.
func synthRun(t *testing.T, rows, parts int, sql string) *client.QueryResult {
	t.Helper()
	ResetCaches()
	t.Cleanup(ResetCaches)
	cfg := testCfg()
	cfg.Workers = parts // syntheticProxy uploads one partition per worker
	proxy, err := syntheticProxy(cfg, rows, 4, translate.Seabed)
	if err != nil {
		t.Fatal(err)
	}
	var res *client.QueryResult
	for range 2 {
		if res, err = proxy.Query(context.Background(), sql); err != nil {
			t.Fatal(err)
		}
	}
	if len(res.Metrics.MapTaskTimes) != parts {
		t.Fatalf("run reports %d map task durations, want %d", len(res.Metrics.MapTaskTimes), parts)
	}
	return res
}

// TestSimulatedScalingImprovesWithWorkers pins the map stage of 32 uneven
// tasks, 0.3 to 0.7 ms each, on one and on eight modelled workers. Where
// TestCostModelPin's twenty tasks take at most two rounds, these take four,
// and the earliest-free-worker schedule leaves a tail: 2.3 ms on eight
// workers, not the ideal 15.7/8. The durations are fixed rather than clocked,
// since on a loaded host one measured task can be descheduled for longer than
// the other 31 take.
func TestSimulatedScalingImprovesWithWorkers(t *testing.T) {
	var m engine.Metrics
	for i := range 32 {
		m.MapTaskTimes = append(m.MapTaskTimes, time.Duration(300+100*(i%5))*time.Microsecond)
	}
	t1 := paperModel(1, 1).of(&m, 0).Map
	t8 := paperModel(8, 1).of(&m, 0).Map
	if t1 != 15700*time.Microsecond || t8 != 2300*time.Microsecond {
		t.Fatalf("map on 1 and 8 workers: %v and %v, want 15.7ms and 2.3ms", t1, t8)
	}
}

// TestCostModelPin: on hand-written metrics the model returns exactly what the
// arithmetic it was lifted from gave when engine.run and Proxy.runQuery did it
// inline — MapTime and ReduceTime the list-scheduled makespans, ShuffleTime the
// shuffle link's transfer of one reducer's share, ServerTime their sum with the
// measured driver time, NetworkTime the client link's transfer of the result,
// TotalTime server + network + client.
func TestCostModelPin(t *testing.T) {
	const (
		driver = 1500 * time.Microsecond
		client = 7 * time.Millisecond
	)
	m := engine.Metrics{
		// Twenty map tasks of 1..20 ms. On 16 workers the first sixteen start
		// at once and tasks 17..20 follow tasks 1..4: the last ends at 4+20.
		MapTaskTimes:    millis(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20),
		ReduceTaskTimes: millis(2, 2, 3),
		ReduceTasks:     3,
		ShuffleBytes:    3_000_001, // not a multiple of the reducers: the share truncates
		ResultBytes:     250_000,
		DriverTime:      driver,
		// What a clock measured must not leak into the model.
		ServerTime: time.Hour, MapTime: time.Hour, ReduceTime: time.Hour,
	}
	for _, tc := range []struct {
		workers    int
		mapT, redT time.Duration
	}{
		{1, 210 * time.Millisecond, 7 * time.Millisecond},
		{16, 24 * time.Millisecond, 3 * time.Millisecond},
		{100, 20 * time.Millisecond, 3 * time.Millisecond},
	} {
		for _, l := range []link{linkInCluster, linkWAN100, linkWAN10} {
			cm := paperModel(tc.workers, 42)
			cm.ClientLink = l
			want := modelled{
				Map:     tc.mapT,
				Shuffle: linkShuffle.transferTime(1_000_000),
				Reduce:  tc.redT,
				Network: l.transferTime(250_000),
			}
			want.Server = want.Map + want.Shuffle + want.Reduce + driver
			want.Total = want.Server + want.Network + client
			if got := cm.of(&m, client); got != want {
				t.Errorf("%d workers over %v:\n got %+v\nwant %+v", tc.workers, l, got, want)
			}
		}
	}

	// Without a reduce stage one link carries every partial to the driver.
	m.ReduceTasks, m.ReduceTaskTimes = 0, nil
	got := paperModel(16, 42).of(&m, 0)
	if got.Shuffle != linkShuffle.transferTime(3_000_001) || got.Reduce != 0 {
		t.Errorf("no reducers: shuffle %v, reduce %v", got.Shuffle, got.Reduce)
	}

	// The links are the paper's: §6.1's in-cluster placement and §6.6's two
	// degraded settings, latency plus serialization delay.
	for _, tc := range []struct {
		link link
		want time.Duration
	}{
		{linkInCluster, 500*time.Microsecond + time.Millisecond},
		{linkWAN100, 10*time.Millisecond + 20*time.Millisecond},
		{linkWAN10, 100*time.Millisecond + 200*time.Millisecond},
		{linkShuffle, 200*time.Microsecond + 2*time.Millisecond},
	} {
		if got := tc.link.transferTime(250_000); got != tc.want {
			t.Errorf("%v moves 250 kB in %v, want %v", tc.link, got, tc.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	l := link{bitsPerSecond: 8e6, latency: 10 * time.Millisecond} // 1 MB/s
	got := l.transferTime(1 << 20)                                // 1 MiB
	want := 10*time.Millisecond + time.Duration(float64(1<<20)*8/8e6*float64(time.Second))
	if got != want {
		t.Fatalf("transferTime = %v, want %v", got, want)
	}
}

func TestTransferTimeZeroBytes(t *testing.T) {
	if got := linkWAN10.transferTime(0); got != linkWAN10.latency {
		t.Fatalf("zero-byte transfer = %v, want latency %v", got, linkWAN10.latency)
	}
	if got := linkWAN10.transferTime(-5); got != linkWAN10.latency {
		t.Fatalf("negative bytes = %v, want latency", got)
	}
}

func TestTransferTimeDegenerateLink(t *testing.T) {
	l := link{latency: time.Millisecond}
	if got := l.transferTime(1 << 30); got != time.Millisecond {
		t.Fatalf("zero-bandwidth link should cost only latency, got %v", got)
	}
}

func TestLinkOrdering(t *testing.T) {
	// The three paper settings must be strictly ordered for any payload.
	const payload = 100 << 10
	if !(linkInCluster.transferTime(payload) < linkWAN100.transferTime(payload)) {
		t.Fatal("InCluster should beat WAN100")
	}
	if !(linkWAN100.transferTime(payload) < linkWAN10.transferTime(payload)) {
		t.Fatal("WAN100 should beat WAN10")
	}
}

func TestLinkString(t *testing.T) {
	for l, want := range map[link]string{
		linkInCluster: "2.0Gbps/500µs",
		linkWAN100:    "100Mbps/10ms",
		linkWAN10:     "10Mbps/100ms",
	} {
		if got := l.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// TestCompressAtDriverAblation pins the other number the model produces: the
// shuffle of a cluster whose workers compress their identifier lists (§4.5).
// The engine used to price that by encoding every map task's list and
// discarding the bytes; workerShuffleBytes now derives it from what a finished
// run carries. On the ablation's query over the synthetic table — a 50 %
// selection of 50,000 rows — the figures the engine itself reported at the
// last commit that encoded in map tasks (3d0dbd1) are written out below: the
// run's map output as held must equal the driver-side figure to the byte (it
// is the same arithmetic), and the model must land within 3 % of the
// worker-side one at 8 map tasks and within 10 % at 32, where the per-list
// codec overhead it leaves out (a Deflate header per task) is four times as
// much. Those figures are the paper's codec's, RangeVBDiffDeflateFast, which
// the ablation names: the default writes this selection as a bitmap.
func TestCompressAtDriverAblation(t *testing.T) {
	for _, tc := range []struct {
		tasks, atWorkers, atDriver int
		tolerance                  float64
	}{
		{8, 10_315, 200_208, 0.03},
		{32, 11_423, 200_704, 0.10},
	} {
		ResetCaches()
		t.Cleanup(ResetCaches)
		cfg := testCfg()
		cfg.Workers = tc.tasks
		proxy, err := syntheticProxy(cfg, 50_000, 10, translate.Seabed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proxy.Query(context.Background(), "SELECT SUM(v) FROM synth",
			client.WithSelectivity(0.5, uint64(cfg.Seed)), client.WithCodec(idlist.RangeVBDiffDeflateFast))
		if err != nil {
			t.Fatal(err)
		}
		m := &res.Metrics
		if m.MapTasks != tc.tasks || m.ShuffleBytes != tc.atDriver {
			t.Fatalf("%d tasks hold %d bytes of map output, want %d tasks and %d (lists raw, 16 B a range)", m.MapTasks, m.ShuffleBytes, tc.tasks, tc.atDriver)
		}
		if m.ShuffleListBytes != tc.atDriver-16*tc.tasks || m.ResultListBytes != m.ResultBytes-16 {
			t.Fatalf("list shares %d of %d and %d of %d: everything but a row count and a body per task, and per result, is list",
				m.ShuffleListBytes, m.ShuffleBytes, m.ResultListBytes, m.ResultBytes)
		}
		got := workerShuffleBytes(m)
		if off := float64(got-tc.atWorkers) / float64(tc.atWorkers); off < -tc.tolerance || off > tc.tolerance {
			t.Errorf("%d tasks: modelled worker-compressed shuffle %d bytes, the engine priced %d (%+.1f %%, tolerance %.0f %%)",
				tc.tasks, got, tc.atWorkers, 100*off, 100*tc.tolerance)
		}
		// Worker-side compression is what shrinks the shuffle, and the model
		// charges the link accordingly.
		cm := cfg.model()
		if w, d := cm.of(m, 0), cm.ofShuffle(m, 0, m.ShuffleBytes); got >= m.ShuffleBytes/10 || w.Shuffle >= d.Shuffle || w.Map != d.Map {
			t.Errorf("%d tasks: worker-side shuffle %d B in %v, driver-side %d B in %v", tc.tasks, got, w.Shuffle, m.ShuffleBytes, d.Shuffle)
		}
	}
}
