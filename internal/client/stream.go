package client

import (
	"context"
	"errors"
	"iter"
	"sync"
	"time"

	"seabed/internal/engine"
	"seabed/internal/obs"
	"seabed/internal/translate"
)

// rowStream is the client side of a streamed scan: a backend goroutine
// pushes result chunks into batches while Rows pulls, decrypts, and yields
// them, so at most one chunk of ciphertext and one decrypted row are
// resident at a time.
type rowStream struct {
	cancel  context.CancelFunc
	batches chan []engine.ScanRow
	final   chan streamFinal
	tr      *translate.Translation
	dec     *decrypter
	drained bool
	// run is the trace span covering the backend run; finish closes the query
	// trace (slow-query log, TraceSink, flight recorder) once the stream ends
	// for any reason, with the run's metrics when the drain completed and the
	// stream's terminal error (nil for a clean drain).
	run    *obs.Span
	finish func(m *engine.Metrics, err error)
}

// streamFinal carries the backend's terminal result (metrics, no rows) or
// error once every chunk has been delivered.
type streamFinal struct {
	res *engine.Result
	err error
}

// streamQuery launches the backend's streaming run and returns a QueryResult
// whose rows arrive through Rows. cancel releases the query's timeout (and
// with it the run) when the stream ends for any reason.
func (p *Proxy) streamQuery(ctx context.Context, cancel context.CancelFunc, aq *obs.ActiveQuery, tr *translate.Translation, root *obs.Span) *QueryResult {
	sctx, scancel := context.WithCancel(ctx)
	s := &rowStream{
		cancel:  func() { scancel(); cancel() },
		batches: make(chan []engine.ScanRow, 1),
		final:   make(chan streamFinal, 1),
		tr:      tr,
		dec:     newDecrypter(p.ring, tr.Server.EffectiveCodec()),
		run:     root.StartChild("run"),
	}
	// A fully drained stream that is then Closed finishes twice; deliver the
	// trace (TraceSink, slow-query log, flight recorder) only once.
	var once sync.Once
	s.finish = func(m *engine.Metrics, err error) {
		once.Do(func() {
			p.finishTrace(root, m)
			aq.Finish(err, root.String())
		})
	}
	go func() {
		res, err := p.cluster.RunStream(obs.ContextWithSpan(sctx, s.run), tr.Server, func(rows []engine.ScanRow) error {
			select {
			case s.batches <- rows:
				aq.AddRows(uint64(len(rows)))
				return nil
			case <-sctx.Done():
				return sctx.Err()
			}
		})
		close(s.batches)
		s.final <- streamFinal{res: res, err: err}
	}()
	return &QueryResult{stream: s, trace: root}
}

// Rows yields the result rows in order. For a materialized result it ranges
// over the buffered rows (reusable, err always nil); for a streamed scan it
// decrypts rows incrementally as chunks arrive from the engine and can be
// consumed once. Breaking out of the loop cancels the underlying query;
// errors — including context cancellation — surface as the final yielded
// pair's error.
func (r *QueryResult) Rows() iter.Seq2[Row, error] {
	if r.stream == nil {
		rows := r.rows
		return func(yield func(Row, error) bool) {
			for _, row := range rows {
				if !yield(row, nil) {
					return
				}
			}
		}
	}
	return r.stream.iterate(r)
}

// All drains Rows into a slice, so call sites that want the whole result —
// every aggregation, and any scan small enough to hold — get it in one call.
func (r *QueryResult) All() ([]Row, error) {
	if r.stream == nil {
		return r.rows, nil
	}
	var rows []Row
	for row, err := range r.Rows() {
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// NumRows reports the materialized row count (0 for an undrained stream).
func (r *QueryResult) NumRows() int { return len(r.rows) }

// Close releases a streamed result without draining it: the underlying query
// is canceled and a later Rows call reports the stream as consumed. It is a
// no-op for materialized results and safe to call after a full drain.
func (r *QueryResult) Close() error {
	if r.stream != nil {
		r.stream.drained = true
		r.stream.cancel()
		r.stream.run.End()
		r.stream.finish(nil, context.Canceled)
	}
	return nil
}

// errStreamConsumed reports a second consumption attempt on a one-shot
// streamed result.
var errStreamConsumed = errors.New("client: streamed result already consumed (Rows is one-shot; use All to materialize)")

// iterate is the one-shot consumption of a streamed scan.
func (s *rowStream) iterate(qr *QueryResult) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		if s.drained {
			yield(Row{}, errStreamConsumed)
			return
		}
		s.drained = true
		defer s.cancel()
		// End the run span when the backend run ends (the drain IS the run for
		// a stream), then finish the whole trace. End and finish are both
		// idempotent, so a Close after a full drain double-ends harmlessly and
		// the success path's explicit finish (which carries the metrics) wins
		// over this fallback.
		defer s.finish(nil, nil)
		defer s.run.End()
		start := time.Now()
		cols := s.tr.Client.ScanCols
		s.dec.resolveScan(cols)
		for batch := range s.batches {
			vals := make([]Value, len(batch)*len(cols))
			for i := range batch {
				row, err := s.dec.scanRow(cols, &batch[i], vals[i*len(cols):])
				if err != nil {
					s.run.End()
					s.finish(nil, err)
					yield(Row{}, err)
					return
				}
				if !yield(row, nil) {
					return
				}
			}
		}
		fin := <-s.final
		if fin.err != nil {
			s.run.End()
			s.finish(nil, fin.err)
			yield(Row{}, fin.err)
			return
		}
		// Fully drained: fill in the breakdown the materialized path reports
		// up front. ClientTime spans the drain, which includes the caller's
		// per-row work — the price of measuring a pipeline from inside it.
		qr.Metrics = fin.res.Metrics
		qr.PRFEvals = s.dec.prfEvals
		qr.ClientTime = time.Since(start)
		s.run.End()
		qr.ServerTime = s.run.Duration()
		s.finish(&qr.Metrics, nil)
		qr.TotalTime = qr.trace.Duration()
	}
}
