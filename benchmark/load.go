package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"seabed/internal/client"
	"seabed/internal/translate"
)

// numClients is the closed loop's client count: analysts and dashboards that
// each wait for a reply before asking again. It equals nproc on the box the
// bounds were fixed on, so the load generator never holds more than nproc
// goroutines or connections per daemon.
const numClients = 2

// phase is what one measured phase observed.
type phase struct {
	wall time.Duration
	cpu  time.Duration // process user+sys over the phase

	queryMs    []float64
	firstRowMs []float64
	rowsOut    uint64
	prfEvals   uint64
	engine     engineCounters

	appendMs     []float64 // due → acknowledged
	appendLateMs float64   // the latest any batch was sent after it was due
	appendRows   uint64
	appendWall   time.Duration
	batches      int // next batch index after the phase

	attempted int
	failed    int
	errs      []string // the first few failures, for the report
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds one client's observations into the phase.
func (ph *phase) merge(o *phase) {
	ph.queryMs = append(ph.queryMs, o.queryMs...)
	ph.firstRowMs = append(ph.firstRowMs, o.firstRowMs...)
	ph.rowsOut += o.rowsOut
	ph.prfEvals += o.prfEvals
	ph.engine.add(&o.engine)
	ph.appendMs = append(ph.appendMs, o.appendMs...)
	ph.appendRows += o.appendRows
	ph.appendWall += o.appendWall
	ph.appendLateMs = max(ph.appendLateMs, o.appendLateMs)
	if o.batches > ph.batches {
		ph.batches = o.batches
	}
	ph.attempted += o.attempted
	ph.failed += o.failed
	for _, e := range o.errs {
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, e)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark: proxy, fleet
// coordinator and all three daemons live in it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// reader walks seq from offset in whole rounds until the deadline (or the
// operation cap), checking every result against want when the table is
// static. With want nil (the table grows under the reader) a query is checked
// only for errors and an empty answer; the final state is verified after the
// phase.
func reader(ctx context.Context, p *client.Proxy, seq []string, offset int, want map[string]digest, deadline time.Time, maxOps int) *phase {
	ph := &phase{}
	round := make([]shape, len(seq))
	for i := range seq {
		round[i] = shapeByName(seq[(offset+i)%len(seq)])
	}
	for ops := 0; ctx.Err() == nil && time.Now().Before(deadline) && (maxOps == 0 || ops < maxOps); {
		for _, s := range round {
			ops++
			ph.attempted++
			qs, err := runQuery(ctx, p, s, translate.Seabed)
			if err != nil {
				ph.fail("%s: %v", s.name, err)
				continue
			}
			if want != nil && qs.digest != want[s.name] {
				ph.fail("%s: %d rows (checksum %x), mirror has %d (checksum %x)",
					s.name, qs.digest.rows, qs.digest.sum, want[s.name].rows, want[s.name].sum)
				continue
			}
			if qs.digest.rows == 0 {
				ph.fail("%s: no rows", s.name)
				continue
			}
			ph.queryMs = append(ph.queryMs, ms(qs.total))
			ph.firstRowMs = append(ph.firstRowMs, ms(qs.firstRow))
			ph.rowsOut += qs.digest.rows
			ph.prfEvals += qs.prfEvals
			ph.engine.addMetrics(&qs.metrics)
		}
	}
	return ph
}

// appender is an open loop: batch i is due at start + i·appendEvery, until
// the deadline (or the operation cap). Each Proxy.Append is timed from when
// it was due to its acknowledgement, so a stall is charged to every batch it
// delays, and the worst lateness of a send is kept.
func appender(ctx context.Context, p *client.Proxy, d *dataset, first int, deadline time.Time, maxOps int) *phase {
	ph := &phase{batches: first}
	start := time.Now()
	for ops := 0; ctx.Err() == nil && (maxOps == 0 || ops < maxOps); ops++ {
		due := start.Add(time.Duration(ops) * d.sc.appendEvery)
		if !due.Before(deadline) {
			break
		}
		b, err := d.batch(ph.batches)
		if err != nil {
			ph.fail("batch %d: %v", ph.batches, err)
			break
		}
		time.Sleep(time.Until(due))
		ph.appendLateMs = max(ph.appendLateMs, ms(time.Since(due)))
		ph.attempted++
		t0 := due
		if err := p.Append(ctx, "ev", b, translate.Seabed); err != nil {
			// A failed append leaves the fleet and the mirror out of step;
			// every later check would fail for that reason alone.
			ph.fail("append batch %d: %v", ph.batches, err)
			break
		}
		ph.appendMs = append(ph.appendMs, ms(time.Since(t0)))
		ph.appendRows += b.NumRows()
		ph.batches++
	}
	ph.appendWall = time.Since(start)
	return ph
}

// measure runs the workload's closed loop on r for the given time: numClients
// clients, each starting at its own offset into the sequence. On an ingest
// workload client 0 appends instead and the remaining clients read.
func measure(ctx context.Context, w workload, d *dataset, r *rig, want map[string]digest, seconds float64) *phase {
	runtime.GC() // start every phase from a collected heap, so set-up garbage is not charged to queries
	total := &phase{batches: d.setupBatches}
	parts := make([]*phase, numClients)
	if w.ingest {
		want = nil // the table grows under the readers
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if w.ingest && c == 0 {
				parts[c] = appender(ctx, r.proxy, d, d.setupBatches, deadline, d.sc.maxOps)
				return
			}
			parts[c] = reader(ctx, r.proxy, w.seq, c*len(w.seq)/numClients, want, deadline, d.sc.maxOps)
		}(c)
	}
	wg.Wait()
	total.wall = time.Since(start)
	total.cpu = cpuTime() - cpu0
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
