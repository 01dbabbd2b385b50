package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"seabed/internal/ashe"
	"seabed/internal/durable"
	"seabed/internal/store"
)

// Recovery measures the durable storage engine's boot path: how fast a
// restarted seabed-server gets its registry back. Two recoveries are timed
// separately because they stress different code — segment load is
// sequential checksummed-frame decoding of one big immutable file, WAL
// replay decodes and re-appends many small records — and their ratio tells
// an operator what a lower compaction threshold (more segments, less WAL)
// would buy at boot. Reported as MB/s of on-disk bytes recovered, which is
// the figure that turns into restart downtime for a dataset of known disk
// size (Table 5).
func Recovery(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	rows := 1 << 19
	if cfg.Quick {
		rows = 1 << 16
	}
	const batchRows = 1 << 12
	fmt.Fprintf(w, "Durable recovery throughput, %d rows (ASHE body + DET dimension per row), %d-row WAL batches\n",
		rows, batchRows)

	// A Seabed-shaped table: one ASHE ciphertext column and one 8-byte DET
	// dimension — the physical layout the daemons persist in production.
	key := ashe.MustNewKey([]byte("bench-key-16byte"))
	mkBatch := func(startID uint64, n int) (*store.Table, error) {
		body := make([]uint64, n)
		det := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			id := startID + uint64(i)
			body[i] = key.EncryptBody(id%100, id)
			det = append(det, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), 0xD3, 0xD3, 0xD3, 0xD3)
		}
		return store.BuildFrom("rec", []store.Column{
			{Name: "m_ashe", Kind: store.U64, U64: body},
			{Name: "d_det", Kind: store.Fixed, Width: 8, Fixed: det},
		}, max(n/batchRows, 1), startID)
	}

	trials := max(cfg.Trials, 3)
	measure := func(prep func(dir string) error) (mbps float64, stats durable.RecoveryStats, err error) {
		var ds []time.Duration
		for trial := 0; trial < trials+1; trial++ { // +1 discarded warmup
			dir, err := os.MkdirTemp("", "seabed-recovery-*")
			if err != nil {
				return 0, stats, err
			}
			if err := prep(dir); err != nil {
				os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
				return 0, stats, err
			}
			start := time.Now()
			s, err := durable.Open(durable.Options{Dir: dir})
			if err != nil {
				os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
				return 0, stats, err
			}
			elapsed := time.Since(start)
			stats = s.Recovery()
			s.Close()         //nolint:errcheck // read-only recovery
			os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
			if trial > 0 {
				ds = append(ds, elapsed)
			}
		}
		med := median(ds)
		if med <= 0 {
			return 0, stats, nil
		}
		return float64(stats.Bytes) / med.Seconds() / 1e6, stats, nil
	}

	// Segment load: the whole table registered as one flush.
	segMBps, segStats, err := measure(func(dir string) error {
		s, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			return err
		}
		defer s.Close()
		tbl, err := mkBatch(1, rows)
		if err != nil {
			return err
		}
		return s.Register("rec#seabed", tbl)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  segment load: %8.1f MB/s  (%d segments, %d bytes)\n", segMBps, segStats.Segments, segStats.Bytes)

	// WAL replay: a small seed segment plus the rest of the table journaled
	// as uncompacted append records.
	walMBps, walStats, err := measure(func(dir string) error {
		s, err := durable.Open(durable.Options{Dir: dir, CompactBytes: 1 << 40})
		if err != nil {
			return err
		}
		defer s.Close()
		seed, err := mkBatch(1, batchRows)
		if err != nil {
			return err
		}
		if err := s.Register("rec#seabed", seed); err != nil {
			return err
		}
		for start := batchRows + 1; start <= rows; start += batchRows {
			batch, err := mkBatch(uint64(start), min(batchRows, rows-start+1))
			if err != nil {
				return err
			}
			if err := s.Append("rec#seabed", batch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  wal replay:   %8.1f MB/s  (%d records, %d bytes)\n", walMBps, walStats.WALRecords, walStats.Bytes)
	if walMBps > 0 {
		fmt.Fprintf(w, "  segment/wal speed ratio: %.2fx (what compaction buys a restart)\n", segMBps/walMBps)
	}
	return nil
}
