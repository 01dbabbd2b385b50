package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/remote"
	"seabed/internal/server"
	"seabed/internal/sqlparse"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// timedBackend is the fleet coordinator as the proxy sees it, with a span
// around each call: installed with Proxy.WithCluster, it times fleet.Run,
// fleet.RunStream and fleet.AppendTable during a real Proxy.Query or
// Proxy.Append. The ladder drives it from one client, so plain fields do.
type timedBackend struct {
	inner    client.ClusterBackend
	runMs    []float64
	appendMs []float64
}

func (t *timedBackend) Workers() int { return t.inner.Workers() }

func (t *timedBackend) RegisterTable(ctx context.Context, ref string, tbl *store.Table) error {
	return t.inner.RegisterTable(ctx, ref, tbl)
}

func (t *timedBackend) AppendTable(ctx context.Context, ref string, batch *store.Table) error {
	d, err := timed(ctx, "fleet.append", func(ctx context.Context) error {
		return t.inner.AppendTable(ctx, ref, batch)
	})
	t.appendMs = append(t.appendMs, ms(d))
	return err
}

func (t *timedBackend) Run(ctx context.Context, pl *engine.Plan) (*engine.Result, error) {
	return t.timeRun(ctx, func(ctx context.Context) (*engine.Result, error) { return t.inner.Run(ctx, pl) })
}

func (t *timedBackend) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (*engine.Result, error) {
	return t.timeRun(ctx, func(ctx context.Context) (*engine.Result, error) { return t.inner.RunStream(ctx, pl, sink) })
}

func (t *timedBackend) timeRun(ctx context.Context, run func(context.Context) (*engine.Result, error)) (res *engine.Result, err error) {
	d, err := timed(ctx, "fleet.run", func(ctx context.Context) error {
		res, err = run(ctx)
		return err
	})
	t.runMs = append(t.runMs, ms(d))
	return res, err
}

// rungs holds one shape's ladder: the same translated plan timed at
// increasing depth, a sample per repetition and rung.
type rungs struct {
	stream                         bool
	parseUs, translateUs           []float64
	engineMs, remoteMs, fleetMs    []float64
	decryptMs, soloMs, soloPlainMs []float64
}

// residualPct is how far the rungs are from adding up: the whole traced query
// against parse + translate + the fleet run + decryption. A streamed scan
// decrypts while the fleet run is still delivering, so there the decryption
// lies inside the run's interval and is left out of the sum.
func (g *rungs) residualPct() float64 {
	sum := median(g.parseUs)/1000 + median(g.translateUs)/1000 + median(g.fleetMs)
	if !g.stream {
		sum += median(g.decryptMs)
	}
	solo := median(g.soloMs)
	if solo == 0 {
		return 0
	}
	return math.Abs(solo-sum) / solo * 100
}

// ladder is the equipment the rungs below the fleet need: an in-process
// engine, and one extra in-memory daemon on loopback holding the whole table.
type ladder struct {
	rig     *rig
	rec     *recorder
	queries int // query IDs handed out so far
	local   *engine.Cluster
	extra   *server.Server
	done    chan error
	remote  *remote.RemoteCluster
	backend *timedBackend
	traced  *client.Proxy
}

func newLadder(ctx context.Context, r *rig, rec *recorder) (*ladder, error) {
	l := &ladder{rig: r, rec: rec, local: engine.NewCluster(engine.Config{Workers: daemonWorkers})}
	l.backend = &timedBackend{inner: r.fleet}
	l.traced = r.proxy.WithCluster(l.backend)

	l.extra = server.New(engine.NewCluster(engine.Config{Workers: daemonWorkers}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.done = make(chan error, 1)
	go func() { l.done <- l.extra.Serve(ln) }()
	if l.remote, err = remote.Dial(ln.Addr().String()); err != nil {
		l.close() //nolint:errcheck // already failing
		return nil, err
	}
	for _, name := range []string{"ev", "users"} {
		t, err := r.proxy.Table(name, translate.Seabed)
		if err == nil {
			err = l.remote.RegisterTable(ctx, client.TableRef(name, translate.Seabed), t)
		}
		if err != nil {
			l.close() //nolint:errcheck // already failing
			return nil, err
		}
	}
	return l, nil
}

func (l *ladder) close() error {
	var err error
	if l.remote != nil {
		err = l.remote.Close()
	}
	if cerr := l.extra.Close(); err == nil {
		err = cerr
	}
	if serr := <-l.done; err == nil {
		err = serr
	}
	return err
}

// translate parses and translates a shape the way Proxy.Query does, timing
// both steps. Translation includes encrypting the query's DET/OPE constants.
func (l *ladder) translate(ctx context.Context, s shape) (tr *translate.Translation, parse, trans time.Duration, err error) {
	var stmt *sqlparse.Statement
	parse, err = timed(ctx, "sqlparse.parse", func(context.Context) error {
		stmt, err = sqlparse.ParseStatement(s.sql)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	trans, err = timed(ctx, "translate.translate", func(context.Context) error {
		tr, err = translate.Translate(stmt.Query, l.rig.proxy, l.rig.proxy.Ring(), translate.Seabed,
			translate.Options{Workers: l.rig.fleet.Workers()})
		return err
	})
	return tr, parse, trans, err
}

// discard is the sink the lower rungs stream scans into.
func discard([]engine.ScanRow) error { return nil }

// runOn times a plan on a backend below the proxy: materialized for
// aggregates, streamed into a discarding sink for streamed shapes.
func runOn(ctx context.Context, name string, b client.ClusterBackend, s shape, pl *engine.Plan) (time.Duration, error) {
	return timed(ctx, name, func(ctx context.Context) error {
		var err error
		if s.stream {
			_, err = b.RunStream(ctx, pl, discard)
		} else {
			_, err = b.Run(ctx, pl)
		}
		return err
	})
}

// climb times one shape on every rung, reps times (fewer once the shape has
// used its time budget, but never under five unless reps is). The result the
// decryption rung works on is captured once, from a materialized fleet run.
func (l *ladder) climb(ctx context.Context, s shape, reps int, budget time.Duration) (*rungs, error) {
	g := &rungs{stream: s.stream}
	capTr, _, _, err := l.translate(ctx, s)
	if err != nil {
		return nil, err
	}
	captured, err := l.rig.fleet.Run(ctx, capTr.Server)
	if err != nil {
		return nil, fmt.Errorf("capture %s: %w", s.name, err)
	}
	start := time.Now()
	for rep := 0; rep < reps && (rep < min(reps, 5) || time.Since(start) < budget); rep++ {
		l.queries++
		root := l.rec.begin("ladder."+s.name, 0, l.queries)
		qctx := withSpan(ctx, spanRef{rec: l.rec, id: root, query: l.queries})

		tr, parse, trans, err := l.translate(qctx, s)
		if err != nil {
			return nil, err
		}
		eng, err := runOn(qctx, "engine.run", l.local, s, tr.Server)
		if err != nil {
			return nil, fmt.Errorf("engine.run %s: %w", s.name, err)
		}
		rem, err := runOn(qctx, "remote.run", l.remote, s, tr.Server)
		if err != nil {
			return nil, fmt.Errorf("remote.run %s: %w", s.name, err)
		}
		before := len(l.backend.runMs)
		solo, err := timed(qctx, "proxy.query", func(ctx context.Context) error {
			_, err := runQuery(ctx, l.traced, s, translate.Seabed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("proxy.query %s: %w", s.name, err)
		}
		if len(l.backend.runMs) != before+1 {
			return nil, fmt.Errorf("proxy.query %s: the proxy called the fleet %d times, want 1", s.name, len(l.backend.runMs)-before)
		}
		dec, err := timed(qctx, "client.decrypt", func(context.Context) error {
			_, err := client.Decrypt(capTr, captured, l.rig.proxy.Ring())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("client.decrypt %s: %w", s.name, err)
		}
		l.rec.end(root)

		// The same query with the recorder and the decorator out of the
		// path: the difference is what tracing costs.
		plain, err := runQuery(ctx, l.rig.proxy, s, translate.Seabed)
		if err != nil {
			return nil, err
		}

		g.parseUs = append(g.parseUs, us(parse))
		g.translateUs = append(g.translateUs, us(trans))
		g.engineMs = append(g.engineMs, ms(eng))
		g.remoteMs = append(g.remoteMs, ms(rem))
		g.fleetMs = append(g.fleetMs, l.backend.runMs[before])
		g.decryptMs = append(g.decryptMs, ms(dec))
		g.soloMs = append(g.soloMs, ms(solo))
		g.soloPlainMs = append(g.soloPlainMs, ms(plain.total))
	}
	return g, nil
}

// appendProbe appends n batches through the traced proxy and returns the
// coordinator's share of each (fleet.AppendTable to both replicas of every
// range, WAL fsync included).
func (l *ladder) appendProbe(ctx context.Context, d *dataset, first, n int) ([]float64, error) {
	before := len(l.backend.appendMs)
	for i := 0; i < n; i++ {
		b, err := d.batch(first + i)
		if err != nil {
			return nil, err
		}
		l.queries++
		root := l.rec.begin("ladder.append", 0, l.queries)
		_, err = timed(withSpan(ctx, spanRef{rec: l.rec, id: root, query: l.queries}), "proxy.append", func(ctx context.Context) error {
			return l.traced.Append(ctx, "ev", b, translate.Seabed)
		})
		l.rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("append probe: %w", err)
		}
	}
	return l.backend.appendMs[before:], nil
}
