package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"seabed/internal/client"
	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/prf"
	"seabed/internal/store"
	"seabed/internal/translate"
	"seabed/internal/wire"
)

const probeReps = 5

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// since times f.
func since(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// shapeProbe is the wire, merge and id-list cost of one shape's result,
// measured on the three range partials the fleet would gather for it.
type shapeProbe struct {
	planEncodeUs   float64
	resultEncodeUs float64 // all three range result frames
	resultDecodeUs float64
	resultBytes    float64
	mergeMs        float64 // engine.MergeResults over the decoded partials
	idlistDecodeUs float64 // every ASHE id-list of the merged result
	idlistBytes    float64
	selectedRows   float64
}

// probeShape runs the shape's plan as three Range+Partial sub-plans on an
// in-process engine, exactly the sub-queries the coordinator scatters, and
// times what happens to their results between the daemons' engines and the
// proxy's decryption: result encode, decode, merge, id-list decode.
func probeShape(ctx context.Context, l *ladder, s shape) (shapeProbe, error) {
	var out shapeProbe
	tr, _, _, err := l.translate(ctx, s)
	if err != nil {
		return out, err
	}
	pl := tr.Server
	subs := pl.Table.SplitRanges(numDaemons)
	partials := make([]*engine.Result, len(subs))
	plans := make([]*engine.Plan, len(subs))
	for k, sub := range subs {
		scoped := *pl
		scoped.Partial = true
		scoped.Range = &engine.IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
		plans[k] = &scoped
		if s.stream {
			partials[k], err = l.local.RunStream(ctx, &scoped, discard)
		} else {
			partials[k], err = l.local.Run(ctx, &scoped)
		}
		if err != nil {
			return out, fmt.Errorf("probe %s range %d: %w", s.name, k, err)
		}
	}
	pl.Codec = plans[0].Codec
	codecName := pl.Codec.Name()

	// The plan frame: tables travel by ref, pointers stripped.
	tx := *plans[0]
	tx.Table = nil
	req := &wire.PlanRequest{TableRef: client.TableRef("ev", translate.Seabed) + "#r0", Plan: &tx}
	if tx.Join != nil {
		join := *tx.Join
		join.Right = nil
		tx.Join = &join
		req.JoinRef = client.TableRef("users", translate.Seabed) + "#all"
	}

	var planEnc, resEnc, resDec, merge, idDec []float64
	frames := make([][]byte, len(partials))
	for rep := 0; rep < probeReps; rep++ {
		d, err := since(func() error { _, err := wire.EncodePlan(req, wire.Version); return err })
		if err != nil {
			return out, err
		}
		planEnc = append(planEnc, us(d))

		d, err = since(func() error {
			for k, p := range partials {
				if frames[k], err = wire.EncodeResult(codecName, p, nil, wire.Version); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return out, err
		}
		resEnc = append(resEnc, us(d))

		decoded := make([]*engine.Result, len(frames))
		d, err = since(func() error {
			for k, f := range frames {
				if _, decoded[k], _, err = wire.DecodeResult(f, wire.Version); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return out, err
		}
		resDec = append(resDec, us(d))

		var merged *engine.Result
		d, err = since(func() error { merged, err = engine.MergeResults(pl, decoded); return err })
		if err != nil {
			return out, err
		}
		merge = append(merge, ms(d))

		var listBytes int
		d, err = since(func() error {
			for gi := range merged.Groups {
				for ai := range merged.Groups[gi].Aggs {
					av := &merged.Groups[gi].Aggs[ai]
					if av.Kind != engine.AggAsheSum {
						continue
					}
					listBytes += len(av.Ashe.Encoded)
					if _, err := pl.Codec.Decode(av.Ashe.Encoded); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return out, err
		}
		idDec = append(idDec, us(d))
		out.idlistBytes = float64(listBytes)
		out.selectedRows = float64(merged.Metrics.RowsSelected)
	}
	for _, f := range frames {
		out.resultBytes += float64(len(f))
	}
	out.planEncodeUs, out.resultEncodeUs, out.resultDecodeUs = median(planEnc), median(resEnc), median(resDec)
	out.mergeMs, out.idlistDecodeUs = median(merge), median(idDec)
	return out, nil
}

// probeChunks times the columnar scan-chunk codec on rows of the scan shape,
// in chunks of engine.ScanChunkRows as the daemons frame them, and returns
// microseconds per thousand rows for encode and decode.
func probeChunks(ctx context.Context, l *ladder) (encUsPerKrow, decUsPerKrow float64, err error) {
	tr, _, _, err := l.translate(ctx, shapeByName("scan"))
	if err != nil {
		return 0, 0, err
	}
	res, err := l.local.Run(ctx, tr.Server)
	if err != nil {
		return 0, 0, err
	}
	kinds, err := engine.ProjectKinds(tr.Server)
	if err != nil {
		return 0, 0, err
	}
	rows := res.Scan
	if len(rows) > 16*engine.ScanChunkRows {
		rows = rows[:16*engine.ScanChunkRows]
	}
	if len(rows) == 0 {
		return 0, 0, fmt.Errorf("chunk probe: the scan shape selected no rows")
	}
	var enc, dec []float64
	for rep := 0; rep < probeReps; rep++ {
		var encD, decD time.Duration
		for lo := 0; lo < len(rows); lo += engine.ScanChunkRows {
			chunk := rows[lo:min(lo+engine.ScanChunkRows, len(rows))]
			var payload []byte
			d, err := since(func() error { payload, err = wire.AppendScanChunk(nil, chunk, kinds); return err })
			if err != nil {
				return 0, 0, err
			}
			encD += d
			d, err = since(func() error { _, err := wire.DecodeScanChunk(payload, wire.Version); return err })
			if err != nil {
				return 0, 0, err
			}
			decD += d
		}
		krows := float64(len(rows)) / 1000
		enc = append(enc, us(encD)/krows)
		dec = append(dec, us(decD)/krows)
	}
	return median(enc), median(dec), nil
}

var prfSink uint64

// probePRF returns nanoseconds per PRF evaluation, the unit the proxy's
// decryption cost is counted in.
func probePRF() float64 {
	p := prf.MustNew([]byte("fleet-bench-prf!"))
	const n = 1 << 18
	var runs []float64
	for rep := 0; rep < probeReps; rep++ {
		start := time.Now()
		var acc uint64
		for i := uint64(0); i < n; i++ {
			acc += p.U64(i * 7)
		}
		runs = append(runs, float64(time.Since(start))/n)
		prfSink += acc
	}
	return median(runs)
}

// storageProbe is the write path below the fleet, layer by layer: proxy
// encryption alone, table serialization, and the durable store.
type storageProbe struct {
	encryptRowsPerS    float64
	encryptBytesPerRow float64
	appendEncryptMs    float64
	serializeMBPerS    float64
	readMBPerS         float64
	registerMBPerS     float64
	durableAppendMs    float64
	walBytesPerRow     float64
	recoveryMs         float64
	mappedBytes        float64
	segments           float64
}

// probeStorage encrypts the dataset against an in-process engine (whose
// register is a no-op, so the time is encryption alone), serializes and reads
// back the encrypted table, and registers, appends to and recovers it in a
// scratch durable store under dir.
func probeStorage(ctx context.Context, d *dataset, dir string) (storageProbe, error) {
	var out storageProbe
	p, err := newProxy(engine.NewCluster(engine.Config{Workers: daemonWorkers}))
	if err != nil {
		return out, err
	}
	dt, err := since(func() error { return p.Upload(ctx, "ev", d.ev, translate.Seabed) })
	if err != nil {
		return out, err
	}
	enc, err := p.Table("ev", translate.Seabed)
	if err != nil {
		return out, err
	}
	rows := float64(enc.NumRows())
	out.encryptRowsPerS = rows / dt.Seconds()

	var buf bytes.Buffer
	dt, err = since(func() error { _, err := enc.WriteTo(&buf); return err })
	if err != nil {
		return out, err
	}
	mb := float64(buf.Len()) / 1e6
	out.encryptBytesPerRow = float64(buf.Len()) / rows
	out.serializeMBPerS = mb / dt.Seconds()
	dt, err = since(func() error { _, err := store.Read(bytes.NewReader(buf.Bytes())); return err })
	if err != nil {
		return out, err
	}
	out.readMBPerS = mb / dt.Seconds()

	plan, err := p.Plan("ev")
	if err != nil {
		return out, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncAlways}
	st, err := durable.Open(opts)
	if err != nil {
		return out, err
	}
	// write registers the table and appends probeReps encrypted batches.
	write := func() error {
		const ref = "probe@Seabed"
		dt, err := since(func() error { return st.Register(ref, enc) })
		if err != nil {
			return err
		}
		out.registerMBPerS = mb / dt.Seconds()
		var encMs, appMs []float64
		first := enc.EndID() + 1
		next := first
		for i := 0; i < probeReps; i++ {
			b, err := d.batch(d.setupBatches + 1000 + i) // indices no phase reaches
			if err != nil {
				return err
			}
			var eb *store.Table
			dt, err = since(func() error {
				eb, err = client.EncryptFrom(plan, p.Ring(), b, translate.Seabed, 1, next)
				return err
			})
			if err != nil {
				return err
			}
			encMs = append(encMs, ms(dt))
			if dt, err = since(func() error { return st.Append(ref, eb) }); err != nil {
				return err
			}
			appMs = append(appMs, ms(dt))
			next += eb.NumRows()
		}
		out.appendEncryptMs, out.durableAppendMs = median(encMs), median(appMs)
		walBytes, err := fileBytes(dir, "wal.log")
		out.walBytesPerRow = float64(walBytes) / float64(next-first)
		return err
	}
	err = write()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}

	dt, err = since(func() error { st, err = durable.Open(opts); return err })
	if err != nil {
		return out, err
	}
	rec := st.Recovery()
	out.recoveryMs, out.mappedBytes, out.segments = ms(dt), float64(rec.MappedBytes), float64(rec.Segments)
	return out, st.Close()
}

// fileBytes sums the sizes of the files under root; with a name, only of the
// files called that.
func fileBytes(root, name string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || (name != "" && e.Name() != name) {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
