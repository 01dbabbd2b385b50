package obs

import (
	"math"
	"runtime/metrics"
)

// runtimeSeries maps each Go runtime family RegisterRuntime exports to the
// runtime/metrics sample it reads. docs/OBSERVABILITY.md holds the same list.
var runtimeSeries = []struct {
	name, help, sample string
	counter            bool
}{
	{"seabed_go_heap_live_bytes", "Heap bytes occupied by live objects and objects not yet swept.", "/memory/classes/heap/objects:bytes", false},
	{"seabed_go_alloc_bytes_total", "Cumulative bytes allocated on the heap.", "/gc/heap/allocs:bytes", true},
	{"seabed_go_gc_cycles_total", "Completed garbage-collection cycles.", "/gc/cycles/total:gc-cycles", true},
	{"seabed_go_gc_pause_seconds_total", "Cumulative stop-the-world garbage-collection pause time.", "/sched/pauses/total/gc:seconds", true},
	{"seabed_go_goroutines", "Live goroutines.", "/sched/goroutines:goroutines", false},
}

// RegisterRuntime registers the Go runtime series on r: what the process's
// allocator, collector and scheduler are doing, read from runtime/metrics at
// scrape time. The runtime measures them itself — nothing here is modelled —
// and they are where a query shape whose cost is representation (allocation,
// GC marking) rather than cryptography shows.
func RegisterRuntime(r *Registry) {
	for _, s := range runtimeSeries {
		read := func() float64 {
			sample := []metrics.Sample{{Name: s.sample}}
			metrics.Read(sample)
			return sampleValue(sample[0].Value)
		}
		if s.counter {
			r.CounterFunc(s.name, s.help, nil, read)
		} else {
			r.GaugeFunc(s.name, s.help, nil, read)
		}
	}
}

// sampleValue flattens a runtime/metrics value to one number. A histogram
// (GC pauses) becomes its total: bucket midpoints weighted by count, an
// unbounded outer bucket counted at its finite edge. A sample this Go version
// does not provide reads 0.
func sampleValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	case metrics.KindFloat64Histogram:
		h := v.Float64Histogram()
		total := 0.0
		for b, n := range h.Counts {
			lo, hi := h.Buckets[b], h.Buckets[b+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			total += float64(n) * (lo + hi) / 2
		}
		return total
	}
	return 0
}
