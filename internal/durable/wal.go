package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"seabed/internal/obs"
	"seabed/internal/store"
)

// The write-ahead log holds append batches that have not yet been folded
// into a segment. One record per append:
//
//	u32 payload length (LE) | u32 CRC32-IEEE of payload (LE) | payload
//
// where the payload is the append frame's table image, byte for byte — the
// encoding of a segment file, so one parser reads both. Records are written
// with a single write() and made durable per the store's fsync policy;
// recovery replays intact records in order and truncates the log at the
// first torn or checksum-failing record, which is the crash-consistency
// contract: a record is either wholly in (it was acknowledged, or raced the
// crash and wins harmlessly) or wholly dropped. A record whose checksum holds
// but whose payload is not an image — a record an earlier format wrote — fails
// recovery with an error naming its offset.

const (
	walName       = "wal.log"
	walHeaderSize = 8
	// walMaxRecord bounds a record's declared length during replay. It
	// matches wire.MaxFrame: an append batch arrives in one wire frame, so
	// no legitimate record can exceed it, and a corrupt length prefix past
	// it is recognized as a tear without trusting the claim.
	walMaxRecord = 1 << 30
)

// wal is an open write-ahead log, exclusive to one tableState.
type wal struct {
	f        *os.File
	path     string
	size     int64
	unsynced int64
	// obsFsync, when non-nil, observes each f.Sync's latency (the store's
	// seabed_wal_fsync_seconds histogram).
	obsFsync *obs.Histogram
	// broken latches a partial record write that could not be cut back:
	// appending past it would strand acknowledged records behind a tear,
	// so the log refuses further records until a restart recovers it.
	broken error
}

// openWAL opens (creating if needed) the log at path for appending.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: stat wal: %w", err)
	}
	return &wal{f: f, path: path, size: st.Size()}, nil
}

// append writes one record. With sync true the record is fsynced before
// append returns (FsyncAlways — the acknowledgement that follows promises
// durability); otherwise the write is left to the kernel until unsynced
// bytes exceed batchBytes (FsyncBatch — bounded loss window, one fsync
// amortized over many appends).
func (w *wal) append(payload []byte, sync bool, batchBytes int64) error {
	if w.broken != nil {
		return fmt.Errorf("durable: wal needs recovery after a failed write: %w", w.broken)
	}
	if len(payload) == 0 || int64(len(payload)) > walMaxRecord {
		// Replay bounds record lengths to walMaxRecord; a record past it
		// would be acknowledged now and truncated as a "tear" at the next
		// boot. Refuse it up front instead.
		return fmt.Errorf("durable: wal record of %d bytes exceeds the %d-byte record limit", len(payload), walMaxRecord)
	}
	rec := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[walHeaderSize:], payload)
	if _, err := w.f.Write(rec); err != nil {
		// A partial write leaves torn bytes that would strand every later
		// record behind a mid-file tear at recovery. Cut the file back to
		// the last intact record; if even that fails, poison the log.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = terr
		}
		return fmt.Errorf("durable: append wal record: %w", err)
	}
	w.size += int64(len(rec))
	w.unsynced += int64(len(rec))
	if sync || w.unsynced >= batchBytes {
		return w.sync()
	}
	return nil
}

// sync flushes outstanding records to stable storage.
func (w *wal) sync() error {
	if w.unsynced == 0 {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync wal: %w", err)
	}
	if w.obsFsync != nil {
		w.obsFsync.ObserveDuration(time.Since(start))
	}
	w.unsynced = 0
	return nil
}

// reset empties the log after its records were compacted into a segment.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: truncate wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync truncated wal: %w", err)
	}
	w.size, w.unsynced = 0, 0
	return nil
}

// close syncs and closes the log.
func (w *wal) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// walRecord is one replayed WAL record: its payload, and the batch that
// payload decodes to, aliasing it.
type walRecord struct {
	img   []byte
	batch *store.Table
}

// replayWAL reads the log at path, decoding every intact record in order.
// It returns the records, the offset where intact records end, and
// whether a torn tail (incomplete or checksum-failing trailing record) was
// found past that offset — the caller truncates the file there before
// reopening it for appends. A missing file is an empty log. A record whose
// checksum verifies but whose payload fails to decode is not a tear; it is
// data corruption and replays as an error.
func replayWAL(path string) (records []walRecord, goodBytes int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("durable: open wal for replay: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var offset int64
	for {
		var hdr [walHeaderSize]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return records, offset, false, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return records, offset, true, nil // torn header
			}
			// A real read failure (EIO, not a short file) is NOT a tear:
			// truncating here would delete acknowledged records a retried
			// read might return intact. Fail recovery loudly instead.
			return nil, 0, false, fmt.Errorf("durable: read wal at offset %d: %w", offset, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > walMaxRecord {
			return records, offset, true, nil // implausible length: a tear
		}
		payload, rerr := readCapped(br, int(length))
		if rerr != nil {
			if errors.Is(rerr, io.ErrUnexpectedEOF) || rerr == io.EOF {
				return records, offset, true, nil // torn payload
			}
			return nil, 0, false, fmt.Errorf("durable: read wal record at offset %d: %w", offset, rerr)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return records, offset, true, nil
		}
		batch, derr := store.DecodeImage(payload)
		if derr != nil {
			return nil, 0, false, fmt.Errorf("durable: wal record at offset %d of %s passed its checksum but failed to decode: %w", offset, path, derr)
		}
		records = append(records, walRecord{img: payload, batch: batch})
		offset += walHeaderSize + int64(length)
	}
}

// readCapped reads exactly n bytes, growing in bounded chunks so a corrupt
// length prefix cannot force a gigabyte allocation before hitting the tear.
func readCapped(br *bufio.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
