package main

import (
	"context"
	"fmt"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/translate"
)

// digest is what a result is checked by: its row count and an
// order-dependent checksum over every key and value.
type digest struct {
	rows uint64
	sum  uint64
}

func (d *digest) addInt(v int64) { d.sum = (d.sum ^ uint64(v)) * 0x100000001b3 }

func (d *digest) addStr(s string) {
	for i := 0; i < len(s); i++ {
		d.sum = (d.sum ^ uint64(s[i])) * 0x100000001b3
	}
}

func (d *digest) addValue(v *client.Value) {
	switch v.Kind {
	case client.Str:
		d.addStr(v.Str)
	case client.Float:
		d.addInt(int64(v.F64 * 1e6))
	default:
		d.addInt(v.I64)
	}
}

func (d *digest) addRow(row *client.Row) {
	d.rows++
	if row.Key != nil {
		d.addValue(row.Key)
	}
	for i := range row.Values {
		d.addValue(&row.Values[i])
	}
}

// queryStats is what one drained query leaves behind.
type queryStats struct {
	digest   digest
	total    time.Duration // Proxy.Query call → last row drained
	firstRow time.Duration // Proxy.Query call → first row yielded
	prfEvals uint64
	metrics  engine.Metrics
}

// runQuery issues one shape through the proxy and drains it, timing the call
// as its caller sees it.
func runQuery(ctx context.Context, p *client.Proxy, s shape, mode translate.Mode) (queryStats, error) {
	var qs queryStats
	opts := []client.QueryOption{client.WithMode(mode)}
	if s.stream {
		opts = append(opts, client.WithStreaming())
	}
	start := time.Now()
	res, err := p.Query(ctx, s.sql, opts...)
	if err != nil {
		return qs, err
	}
	for row, err := range res.Rows() {
		if err != nil {
			return qs, err
		}
		if qs.digest.rows == 0 {
			qs.firstRow = time.Since(start)
		}
		qs.digest.addRow(&row)
	}
	qs.total = time.Since(start)
	qs.prfEvals = res.PRFEvals
	qs.metrics = res.Metrics
	return qs, nil
}

// mirror is the correctness oracle: the same plaintext rows under NoEnc on an
// in-process engine. No sockets, no encryption, no disk — whatever the fleet
// answers must digest to what the mirror answers.
type mirror struct {
	proxy *client.Proxy
}

func newMirror(ctx context.Context, ev, users *store.Table) (*mirror, error) {
	p, err := newProxy(engine.NewCluster(engine.Config{Workers: daemonWorkers}))
	if err != nil {
		return nil, err
	}
	if err := upload(ctx, p, ev, users, translate.NoEnc); err != nil {
		return nil, fmt.Errorf("mirror upload: %w", err)
	}
	return &mirror{proxy: p}, nil
}

func (m *mirror) appendBatch(ctx context.Context, batch *store.Table) error {
	return m.proxy.Append(ctx, "ev", batch, translate.NoEnc)
}

// expect digests every named shape on the mirror.
func (m *mirror) expect(ctx context.Context, names []string) (map[string]digest, error) {
	out := make(map[string]digest, len(names))
	for _, name := range names {
		if _, done := out[name]; done {
			continue
		}
		qs, err := runQuery(ctx, m.proxy, shapeByName(name), translate.NoEnc)
		if err != nil {
			return nil, fmt.Errorf("mirror %s: %w", name, err)
		}
		if qs.digest.rows == 0 {
			return nil, fmt.Errorf("mirror %s: no rows; the workload would check nothing", name)
		}
		out[name] = qs.digest
	}
	return out, nil
}

// verify runs every shape of want on the fleet proxy and demands the mirror's
// digest.
func verify(ctx context.Context, p *client.Proxy, want map[string]digest) error {
	for name, w := range want {
		qs, err := runQuery(ctx, p, shapeByName(name), translate.Seabed)
		if err != nil {
			return fmt.Errorf("verify %s: %w", name, err)
		}
		if qs.digest != w {
			return fmt.Errorf("verify %s: fleet answered %d rows (checksum %x), mirror %d rows (checksum %x)",
				name, qs.digest.rows, qs.digest.sum, w.rows, w.sum)
		}
	}
	return nil
}
