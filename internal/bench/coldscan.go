package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"seabed/internal/ashe"
	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/store"
)

// ColdScan measures what the mapped-segment path costs and saves: scan
// throughput over a recovered table when its columns are already resident,
// when every column must fault in from the mmap'd segment (the first query
// after a restart), and when a -max-resident budget forces partitions to
// evict between scans. First-chunk latency is reported alongside rows/s
// because the mapped path's promise is exactly that a restarted daemon
// streams its first rows before the whole table is back in memory — the
// time-to-first-byte an operator sees after a failover.
func ColdScan(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rows := 1 << 20
	if cfg.Quick {
		rows = 1 << 17
	}
	const parts = 16
	fmt.Fprintf(w, "Cold-scan throughput over mapped segments, %d rows (ASHE body + DET dimension), %d partitions\n",
		rows, parts)

	// The production layout: one ASHE ciphertext column and one 8-byte DET
	// dimension, flushed as a single columnar segment.
	key := ashe.MustNewKey([]byte("bench-key-16byte"))
	body := make([]uint64, rows)
	det := make([]byte, 0, 8*rows)
	for i := 0; i < rows; i++ {
		id := uint64(i) + 1
		body[i] = key.EncryptBody(id%100, id)
		det = append(det, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), 0xC5, 0xC5, 0xC5, 0xC5)
	}
	tbl, err := store.BuildFrom("cold", []store.Column{
		{Name: "m_ashe", Kind: store.U64, U64: body},
		{Name: "d_det", Kind: store.Fixed, Width: 8, Fixed: det},
	}, parts, 1)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "seabed-coldscan-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	{
		s, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			return err
		}
		if err := s.Register("cold#seabed", tbl); err != nil {
			s.Close() //nolint:errcheck // already failing
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
	}
	tableBytes := tbl.MemBytes()

	cluster := engine.NewCluster(engine.Config{Workers: parts, Seed: uint64(cfg.Seed)})
	scanPlan := func(t *store.Table) *engine.Plan {
		return &engine.Plan{Table: t, Project: []string{"m_ashe", "d_det"}}
	}

	// One streamed scan: total wall clock plus latency to the first non-empty
	// batch out of the executor.
	scanOnce := func(t *store.Table) (total, firstChunk time.Duration, nRows int, err error) {
		start := time.Now()
		sink := func(batch []engine.ScanRow) error {
			if nRows == 0 && len(batch) > 0 {
				firstChunk = time.Since(start)
			}
			nRows += len(batch)
			return nil
		}
		if _, err = cluster.RunStream(context.Background(), scanPlan(t), sink); err != nil {
			return 0, 0, 0, err
		}
		return time.Since(start), firstChunk, nRows, nil
	}

	report := func(label string, total, first time.Duration, n int) {
		fmt.Fprintf(w, "  %-28s %8.1f Mrows/s  first-chunk %s  (%d rows)\n",
			label, mrowsPerSec(n, total), first, n)
	}

	// Cold: open maps the segment; the measured scan faults every column.
	// Warm: the same store again, columns resident (unlimited budget).
	{
		s, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			return err
		}
		rec := s.Recovery()
		fmt.Fprintf(w, "  recovery: %d bytes mapped of %d on disk in %s (table %d bytes resident when loaded)\n",
			rec.MappedBytes, rec.Bytes, seconds(rec.Duration), tableBytes)
		mapped := s.Tables()["cold#seabed"]
		if mapped == nil {
			s.Close() //nolint:errcheck // already failing
			return fmt.Errorf("coldscan: recovered store lost table cold#seabed")
		}
		total, first, n, err := scanOnce(mapped)
		if err != nil {
			s.Close() //nolint:errcheck // already failing
			return err
		}
		report("cold (fault per column):", total, first, n)

		trials := max(cfg.Trials, 3)
		var ds, firsts []time.Duration
		for t := 0; t < trials; t++ {
			total, first, _, err := scanOnce(mapped)
			if err != nil {
				s.Close() //nolint:errcheck // already failing
				return err
			}
			ds, firsts = append(ds, total), append(firsts, first)
		}
		report("warm (columns resident):", median(ds), median(firsts), n)
		st := s.Residency().Stats()
		fmt.Fprintf(w, "  unlimited budget: %d column faults, %d evictions, %d bytes resident\n",
			st.ColumnFaults, st.Evictions, st.ResidentBytes)
		if err := s.Close(); err != nil {
			return err
		}
	}

	// Budgeted: a -max-resident watermark at half the table forces the LRU to
	// evict partitions between scans, so every pass re-faults part of the
	// working set. The interesting number is how close a thrashing scan stays
	// to the warm one — the price of serving a table larger than RAM.
	{
		s, err := durable.Open(durable.Options{Dir: dir, MaxResidentBytes: int64(tableBytes / 2)})
		if err != nil {
			return err
		}
		mapped := s.Tables()["cold#seabed"]
		trials := max(cfg.Trials, 3)
		var ds []time.Duration
		var n int
		for t := 0; t < trials+1; t++ { // +1 discarded cold pass
			total, _, got, err := scanOnce(mapped)
			if err != nil {
				s.Close() //nolint:errcheck // already failing
				return err
			}
			if t > 0 {
				ds = append(ds, total)
				n = got
			}
		}
		st := s.Residency().Stats()
		report(fmt.Sprintf("budget %dB (evicting):", st.BudgetBytes), median(ds), 0, n)
		fmt.Fprintf(w, "  budgeted: %d column faults, %d evictions (%d bytes reclaimed), %d bytes resident\n",
			st.ColumnFaults, st.Evictions, st.EvictedBytes, st.ResidentBytes)
		if err := s.Close(); err != nil {
			return err
		}
	}
	return nil
}
