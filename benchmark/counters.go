package main

import (
	"runtime"

	"seabed/internal/engine"
)

// engineCounters sums the engine's exact counters over the queries of a
// phase, as the merged results report them. Only counts: none of
// engine.Metrics' modelled *Time fields is read anywhere in the benchmark.
type engineCounters struct {
	rowsScanned, rowsSelected uint64
	resultBytes, shuffleBytes uint64
	groupDense, groupHash     uint64
	radixBatches, columnPins  uint64
}

func (c *engineCounters) addMetrics(m *engine.Metrics) {
	c.rowsScanned += m.RowsScanned
	c.rowsSelected += m.RowsSelected
	c.resultBytes += uint64(m.ResultBytes)
	c.shuffleBytes += uint64(m.ShuffleBytes)
	c.groupDense += m.Ops.GroupDense
	c.groupHash += m.Ops.GroupHash
	c.radixBatches += m.Ops.RadixBatches
	c.columnPins += m.Ops.ColumnPins
}

func (c *engineCounters) add(o *engineCounters) {
	c.rowsScanned += o.rowsScanned
	c.rowsSelected += o.rowsSelected
	c.resultBytes += o.resultBytes
	c.shuffleBytes += o.shuffleBytes
	c.groupDense += o.groupDense
	c.groupHash += o.groupHash
	c.radixBatches += o.radixBatches
	c.columnPins += o.columnPins
}

// sysCounters is a snapshot of the counters the daemons, the fleet
// coordinator and the Go runtime keep; a phase reports the difference of two.
type sysCounters struct {
	runs, errors, canceled uint64
	planHits, planMisses   uint64
	bytesIn, bytesOut      uint64
	faults, evictions      uint64
	residentBytes          uint64 // a level, not a flow: never differenced
	walFsyncs              uint64
	hedges, failovers      uint64
	gcCycles               uint64
	gcPauseNs              uint64
	allocBytes             uint64
}

func snapshot(r *rig) sysCounters {
	var c sysCounters
	for _, d := range r.daemons {
		st := d.srv.Stats()
		c.runs += st.Runs
		c.errors += st.Errors
		c.canceled += st.Canceled
		c.planHits += st.PlanCacheHits
		c.planMisses += st.PlanCacheMisses
		c.faults += st.Residency.ColumnFaults
		c.evictions += st.Residency.Evictions
		c.residentBytes += st.Residency.ResidentBytes
		reg := d.srv.Metrics()
		c.bytesIn += reg.Counter("seabed_bytes_in_total", "", nil).Value()
		c.bytesOut += reg.Counter("seabed_bytes_out_total", "", nil).Value()
		c.walFsyncs += reg.Histogram("seabed_wal_fsync_seconds", "", nil, nil).Count()
	}
	fs := r.fleet.Stats()
	c.hedges, c.failovers = fs.Hedges, fs.Failovers
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.gcCycles, c.gcPauseNs, c.allocBytes = uint64(m.NumGC), m.PauseTotalNs, m.TotalAlloc
	return c
}

// since returns the flows between an earlier snapshot and this one;
// residentBytes keeps this snapshot's level.
func (c sysCounters) since(o sysCounters) sysCounters {
	return sysCounters{
		runs: c.runs - o.runs, errors: c.errors - o.errors, canceled: c.canceled - o.canceled,
		planHits: c.planHits - o.planHits, planMisses: c.planMisses - o.planMisses,
		bytesIn: c.bytesIn - o.bytesIn, bytesOut: c.bytesOut - o.bytesOut,
		faults: c.faults - o.faults, evictions: c.evictions - o.evictions,
		residentBytes: c.residentBytes,
		walFsyncs:     c.walFsyncs - o.walFsyncs,
		hedges:        c.hedges - o.hedges, failovers: c.failovers - o.failovers,
		gcCycles: c.gcCycles - o.gcCycles, gcPauseNs: c.gcPauseNs - o.gcPauseNs,
		allocBytes: c.allocBytes - o.allocBytes,
	}
}
