package bench

import (
	"fmt"
	"math/rand"
	"time"

	"seabed/internal/engine"
)

// costModel stands in for the paper's testbed (§6.1–6.2, §6.6): a cluster of
// Workers cores that one run's measured task durations are list-scheduled
// onto, the per-worker link the shuffle crosses, the link between the cloud
// and the client, and optionally §6.2's stragglers. It is the only place the
// repository turns measurements into times no clock took; the system reports
// wall-clock about itself, and every figure driver that prints a modelled
// time says so. README.md, "Paper figures: what is substituted", item 1.
type costModel struct {
	// Workers is the simulated core count (the x-axis of Figure 7).
	Workers int
	// ShuffleLink carries map→reduce traffic, one link per reducer.
	ShuffleLink link
	// ClientLink carries the result to the proxy (§6.6 degrades it).
	ClientLink link
	// StragglerProb makes each map task a straggler with that probability
	// (§6.2 observed GC stragglers), drawn from a generator seeded by Seed
	// alone so the picks repeat; a straggler's duration is multiplied by
	// StragglerFactor. Zero disables injection.
	StragglerProb   float64
	StragglerFactor float64
	Seed            uint64
}

// paperModel is the testbed as the paper ran it: in-cluster links, no
// injected stragglers.
func paperModel(workers int, seed int64) costModel {
	return costModel{Workers: workers, ShuffleLink: linkShuffle, ClientLink: linkInCluster, Seed: uint64(seed)}
}

// link is a modelled network link: a bandwidth and a one-way latency. The
// paper's testbed places the client inside the Azure cluster (≈2 Gbps,
// sub-ms), then degrades the link to 100 Mbps/10 ms and 10 Mbps/100 ms to
// measure sensitivity (§6.1, §6.6); those three operating points and the
// shuffle's per-worker link are predefined below.
type link struct {
	bitsPerSecond float64
	latency       time.Duration
}

var (
	// linkInCluster is the default client placement: a node in the same
	// cluster (TCP throughput ≈ 2 Gbps).
	linkInCluster = link{bitsPerSecond: 2e9, latency: 500 * time.Microsecond}
	// linkWAN100 is the 100 Mbps / 10 ms degraded link of §6.6.
	linkWAN100 = link{bitsPerSecond: 100e6, latency: 10 * time.Millisecond}
	// linkWAN10 is the 10 Mbps / 100 ms degraded link of §6.6.
	linkWAN10 = link{bitsPerSecond: 10e6, latency: 100 * time.Millisecond}
	// linkShuffle is the per-worker in-cluster link map→reduce traffic takes.
	linkShuffle = link{bitsPerSecond: 1e9, latency: 200 * time.Microsecond}
)

// transferTime returns the modelled time to move the given number of bytes
// across the link: latency plus serialization delay.
func (l link) transferTime(bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	if l.bitsPerSecond <= 0 {
		return l.latency
	}
	sec := float64(bytes) * 8 / l.bitsPerSecond
	return l.latency + time.Duration(sec*float64(time.Second))
}

// String implements fmt.Stringer, e.g. "2.0Gbps/500µs".
func (l link) String() string {
	switch {
	case l.bitsPerSecond >= 1e9:
		return fmt.Sprintf("%.1fGbps/%v", l.bitsPerSecond/1e9, l.latency)
	case l.bitsPerSecond >= 1e6:
		return fmt.Sprintf("%.0fMbps/%v", l.bitsPerSecond/1e6, l.latency)
	}
	return fmt.Sprintf("%.0fbps/%v", l.bitsPerSecond, l.latency)
}

// model is the testbed an experiment's Config describes.
func (c Config) model() costModel { return paperModel(c.Workers, c.Seed) }

// modelled is what a costModel makes of one finished run.
type modelled struct {
	// Map and Reduce are the stages' makespans over the simulated workers,
	// Shuffle the transfer between them.
	Map, Shuffle, Reduce time.Duration
	// Server is Map + Shuffle + Reduce plus the measured driver time.
	Server time.Duration
	// Network is the result's transfer to the client.
	Network time.Duration
	// Total is Server + Network plus the measured client time.
	Total time.Duration
}

// workerShuffleBytes models the shuffle of the paper's cluster, where every
// worker compresses its identifier lists before sending them (§4.5, the choice
// the paper arrives at). This engine shuffles nothing and so compresses
// nothing in a map task: a run reports its map output as held, the
// identifiers it keeps for the result's identifier section raw
// (Metrics.ShuffleBytes, ShuffleListBytes of it those). The same identifiers
// — but for the few ranges that coalesce where two tasks meet — are what the
// run's driver then really encoded, as one list and, for a group-by, its runs
// (ResultListBytes), so the model swaps one for the other. It leaves out the
// codec's fixed cost per list (a Deflate header per task, about 20 bytes).
// A bucketed group-by's map output holds rows beside those identifiers: it
// models as the buckets plus the section. Metrics that carry no list sizes (a
// remote run's) model as reported.
func workerShuffleBytes(m *engine.Metrics) int {
	return m.ShuffleBytes - m.ShuffleListBytes + m.ResultListBytes
}

// of models one run from its metrics and the client's measured decryption
// time, its shuffle compressed at the workers (workerShuffleBytes). It needs
// the per-task durations only an in-process engine.Cluster reports
// (Metrics.MapTaskTimes, ReduceTaskTimes); it is a pure function of its
// arguments.
func (c costModel) of(m *engine.Metrics, client time.Duration) modelled {
	return c.ofShuffle(m, client, workerShuffleBytes(m))
}

// ofShuffle is of with the shuffle's size given: m.ShuffleBytes models §4.5's
// alternative, lists shipped raw and compressed at the driver.
func (c costModel) ofShuffle(m *engine.Metrics, client time.Duration, shuffleBytes int) modelled {
	tasks := append([]time.Duration(nil), m.MapTaskTimes...)
	injectStragglers(tasks, c.Seed, c.StragglerProb, c.StragglerFactor)
	// The shuffle fans out over the reducers' links in parallel: fewer
	// reducers means fewer links carrying the same bytes — the §4.5
	// bottleneck that group inflation exists to fix. Without a reduce stage
	// the partials stream to the driver over one link.
	out := modelled{
		Map:     makespan(tasks, c.Workers),
		Shuffle: c.ShuffleLink.transferTime(shuffleBytes / max(m.ReduceTasks, 1)),
		Reduce:  makespan(m.ReduceTaskTimes, c.Workers),
		Network: c.ClientLink.transferTime(m.ResultBytes),
	}
	out.Server = out.Map + out.Shuffle + out.Reduce + m.DriverTime
	out.Total = out.Server + out.Network + client
	return out
}

// injectStragglers applies the straggler model to task durations, in place:
// each task, in order, is a straggler with probability prob — drawn from a
// generator seeded by seed alone, so the picks repeat — and a straggler's
// duration is multiplied by factor.
func injectStragglers(durations []time.Duration, seed uint64, prob, factor float64) {
	if prob <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eabed))
	for i, d := range durations {
		if rng.Float64() < prob {
			durations[i] = time.Duration(float64(d) * factor)
		}
	}
}

// makespan list-schedules the given task durations onto w workers (FIFO,
// earliest-free-worker) and returns the finishing time.
func makespan(durations []time.Duration, w int) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	if w < 1 {
		w = 1
	}
	free := make([]time.Duration, w)
	var finish time.Duration
	for _, d := range durations {
		// Earliest-free worker.
		min := 0
		for i := 1; i < w; i++ {
			if free[i] < free[min] {
				min = i
			}
		}
		free[min] += d
		if free[min] > finish {
			finish = free[min]
		}
	}
	return finish
}
