// Package durable is Seabed's disk-backed table store: the persistence
// layer a seabed-server mounts with -data-dir so its registry of encrypted
// tables survives crashes and restarts. The paper's prototype leans on HDFS
// for exactly this (§6.1 stores every dataset on the cloud provider's
// disks; Table 5 reports the resulting per-scheme disk sizes) — this
// package plays that role for the daemons, with a design borrowed from
// log-structured storage engines:
//
//   - Registered tables flush as immutable segment files, each the table's
//     image (store's one table encoding, "SBSG" v4, specified in
//     docs/FORMAT.md) exactly as the register frame carried it: a CRC'd
//     directory header followed by 8-aligned column extents, each with its
//     own CRC, so the file can be memory-mapped and served in place. Bit
//     rot is detected at read time — header eagerly at Open, extents
//     lazily at first fault — never served to a query. A file of any other
//     format in a table directory fails Open with an error naming it.
//   - Appends journal to a per-table write-ahead log before they are
//     acknowledged (length-prefixed, checksummed records, each holding the
//     append frame's image; fsync per the configured policy). Past
//     Options.CompactBytes the journaled images compact into a new segment
//     and the log resets — segments already written are never rewritten.
//   - A versioned manifest, replaced by atomic rename, is the commit
//     point: it names the live segment set per table. Anything on disk the
//     manifest doesn't reference is a leftover of a crashed operation and
//     is deleted on Open.
//
// Recovery (Open) replays manifest + segments + WAL per table in parallel.
// Segments are mapped, not read: their tables recover as lazy view
// partitions (store.NewViewPartition) whose columns fault in per query,
// and only the WAL tail loads eagerly — so boot cost scales with the
// journal, not the dataset, and Options.MaxResidentBytes bounds how much
// faulted column data stays on the heap (see store.Residency). A torn WAL
// tail — the expected artifact of a crash mid-append — is truncated, not
// an error: the record was never acknowledged under FsyncAlways, or falls
// inside FsyncBatch's documented loss window. A checksum-passing record
// that fails to decode is real corruption and does error. The recovered
// tables preserve identifier placement exactly, so a restarted shard
// daemon still covers its identifier ranges and the coordinator's
// envelope scoping, replay detection (store.Table.Covers), and
// Proxy.SyncTables rebinding all work unchanged.
package durable

import (
	"fmt"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"seabed/internal/obs"
	"seabed/internal/store"
)

// FsyncPolicy selects when the write-ahead log reaches stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs the log before every append acknowledgement: an
	// acked append survives any crash, at one fsync (~ms on commodity
	// disks) per append.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch leaves records to the kernel until Options.BatchBytes
	// accumulate, then syncs once: appends ack at memory speed and one
	// fsync amortizes over many records, but a crash may drop up to
	// BatchBytes of acknowledged appends. Registers, compactions, and the
	// manifest always sync regardless of policy.
	FsyncBatch
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	if p == FsyncBatch {
		return "batch"
	}
	return "always"
}

// ParseFsyncPolicy parses the -fsync flag values "always" and "batch".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	}
	return 0, fmt.Errorf("durable: fsync policy %q: want always or batch", s)
}

// Options configures a Store.
type Options struct {
	// Dir is the store's root directory, created if missing.
	Dir string
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// CompactBytes is the per-table WAL size past which appended batches
	// compact into a new segment. Default 4 MiB.
	CompactBytes int64
	// BatchBytes is FsyncBatch's sync threshold: unsynced WAL bytes that
	// force an fsync. Default 1 MiB.
	BatchBytes int64
	// MaxResidentBytes bounds the heap bytes materialized from mapped
	// segments (the -max-resident flag): past it, the least-recently-used
	// unpinned view partitions drop their vectors and later queries fault
	// them back in. 0 means unlimited. The WAL tail and tables registered
	// this run are heap-resident regardless — the budget governs the mapped,
	// recovered bulk, which is where a dataset larger than RAM lives.
	MaxResidentBytes int64
	// Log, when non-nil, receives structured recovery and compaction events.
	Log *slog.Logger
	// Metrics, when non-nil, receives the store's WAL latency histograms
	// (seabed_wal_append_seconds, seabed_wal_fsync_seconds) — typically the
	// owning server's registry, so one /metrics scrape covers both layers.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.CompactBytes <= 0 {
		o.CompactBytes = 4 << 20
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = 1 << 20
	}
	return o
}

// RecoveryStats summarizes what Open rebuilt, for startup logs and
// server.Stats.
type RecoveryStats struct {
	// Tables and Segments count what was recovered; WALRecords counts
	// replayed append batches.
	Tables     int `json:"tables"`
	Segments   int `json:"segments"`
	WALRecords int `json:"wal_records"`
	// TornTails counts WALs truncated at a torn or checksum-failing tail
	// record (at most one tear per table).
	TornTails int `json:"torn_tails"`
	// Bytes is the total segment + WAL bytes recovery made addressable:
	// eagerly read bytes plus MappedBytes.
	Bytes int64 `json:"bytes"`
	// MappedBytes is the subset of Bytes recovery mapped rather than read —
	// segments whose columns fault in on first query instead of being
	// decoded at startup.
	MappedBytes int64 `json:"mapped_bytes"`
	// Duration is recovery wall-clock time, tables recovering in parallel.
	Duration time.Duration `json:"duration_ns"`
}

// tableState is one table's mutable durable state.
type tableState struct {
	id string

	mu       sync.Mutex
	segments []string
	nextSeq  int
	wal      *wal
	// tail holds the images of the WAL records journaled since the last
	// segment that carry rows, in order — what the next compaction joins
	// into one segment. Nil when the WAL holds nothing uncompacted.
	tail [][]byte
	// endID is the last row identifier across segments and WAL, validating
	// that journaled batches only ever move forward.
	endID uint64
}

// Store is a disk-backed table store. Methods are safe for concurrent use;
// appends to different tables journal and sync independently.
type Store struct {
	opts Options

	// WAL latency instruments (nil without Options.Metrics). mAppend brackets
	// the whole journal write — record write and policy fsync — which is the
	// latency an acknowledged append paid for durability; mFsync isolates the
	// f.Sync call itself, the §6 disk-cost denominator.
	mAppend *obs.Histogram
	mFsync  *obs.Histogram

	// res tracks (and, under Options.MaxResidentBytes, bounds) the heap
	// bytes materialized from mapped segments.
	res *store.Residency

	// maps holds every mapped segment opened by recovery, released at Close.
	// Segments superseded by Register/compaction stay mapped until then:
	// queries on an earlier table snapshot may still alias them, and the
	// kernel reclaims their clean pages anyway once nothing faults them.
	mapsMu sync.Mutex
	maps   []*mappedSegment

	mu     sync.Mutex
	man    *manifest
	tables map[string]*tableState // by ref
	closed bool

	recovered map[string]*store.Table
	stats     RecoveryStats
}

// Open mounts the store at opts.Dir, creating it if empty, and recovers
// every table the manifest names: segments load in order, intact WAL
// records replay on top, torn tails truncate, and uncommitted leftovers of
// crashed operations are deleted. Recovery runs per-table in parallel; its
// cost is reported by Recovery.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create %s: %w", opts.Dir, err)
	}
	man, err := loadManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:      opts,
		man:       man,
		res:       store.NewResidency(uint64(max(opts.MaxResidentBytes, 0))),
		tables:    make(map[string]*tableState, len(man.Tables)),
		recovered: make(map[string]*store.Table, len(man.Tables)),
	}
	if opts.Metrics != nil {
		s.mAppend = opts.Metrics.Histogram("seabed_wal_append_seconds",
			"WAL journal latency per append: record write and any policy fsync.", nil, nil)
		s.mFsync = opts.Metrics.Histogram("seabed_wal_fsync_seconds",
			"WAL fsync latency.", nil, nil)
	}
	if err := s.removeOrphans(); err != nil {
		return nil, err
	}

	start := time.Now()
	type result struct {
		ref   string
		state *tableState
		tbl   *store.Table
		stats RecoveryStats
		err   error
	}
	results := make([]result, len(man.Tables))
	var wg sync.WaitGroup
	for i, mt := range man.Tables {
		wg.Add(1)
		go func(i int, mt manifestTable) {
			defer wg.Done()
			st, tbl, stats, err := s.recoverTable(mt)
			results[i] = result{ref: mt.Ref, state: st, tbl: tbl, stats: stats, err: err}
		}(i, mt)
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			// Close the WALs the successful recoveries opened.
			for _, other := range results {
				if other.state != nil && other.state.wal != nil {
					other.state.wal.close() //nolint:errcheck // already failing
				}
			}
			return nil, fmt.Errorf("durable: recover table %q: %w", r.ref, r.err)
		}
		s.tables[r.ref] = r.state
		s.recovered[r.ref] = r.tbl
		s.stats.Tables++
		s.stats.Segments += r.stats.Segments
		s.stats.WALRecords += r.stats.WALRecords
		s.stats.TornTails += r.stats.TornTails
		s.stats.Bytes += r.stats.Bytes
		s.stats.MappedBytes += r.stats.MappedBytes
	}
	s.stats.Duration = time.Since(start)
	return s, nil
}

// recoverTable rebuilds one table from its directory.
func (s *Store) recoverTable(mt manifestTable) (*tableState, *store.Table, RecoveryStats, error) {
	var stats RecoveryStats
	tdir := filepath.Join(s.opts.Dir, mt.ID)
	tbl, mapped, err := s.openSegments(tdir, mt.Segments)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.Segments = len(mt.Segments)
	stats.Bytes, stats.MappedBytes = mapped, mapped

	walPath := filepath.Join(tdir, walName)
	records, goodBytes, torn, err := replayWAL(walPath)
	if err != nil {
		return nil, nil, stats, err
	}
	stats.Bytes += goodBytes
	if torn {
		stats.TornTails++
		s.log("truncating torn wal tail", "ref", mt.Ref, "offset", goodBytes)
		if err := os.Truncate(walPath, goodBytes); err != nil {
			return nil, nil, stats, fmt.Errorf("truncate torn wal: %w", err)
		}
	}
	var tail [][]byte
	for _, rec := range records {
		// A record already covered by the segments was compacted in a run
		// that crashed between the manifest commit and the WAL reset — the
		// rows are in a segment, the record is a harmless leftover.
		if rec.batch.NumRows() > 0 && tbl.Covers(rec.batch.Parts[0].StartID, rec.batch.EndID()) {
			continue
		}
		if err := tbl.AppendTable(rec.batch); err != nil {
			return nil, nil, stats, fmt.Errorf("wal record does not continue the table: %w", err)
		}
		if rec.batch.NumRows() > 0 {
			tail = append(tail, rec.img)
		}
		stats.WALRecords++
	}
	st := &tableState{
		id:       mt.ID,
		segments: append([]string(nil), mt.Segments...),
		nextSeq:  nextSegSeq(mt.Segments),
		tail:     tail,
		endID:    tbl.EndID(),
	}
	if err := s.openLog(st); err != nil {
		return nil, nil, stats, err
	}
	return st, tbl, stats, nil
}

// openSegments maps a table's committed segments, in order, and joins them
// into its table, as recovery opens them. It returns the bytes mapped.
func (s *Store) openSegments(tdir string, segments []string) (*store.Table, int64, error) {
	var tbl *store.Table
	var mapped int64
	for _, seg := range segments {
		part, n, err := s.openSegment(filepath.Join(tdir, seg))
		if err != nil {
			return nil, 0, fmt.Errorf("segment %s: %w", seg, err)
		}
		mapped += n
		if tbl == nil {
			tbl = part
		} else if err := tbl.AppendTable(part); err != nil {
			return nil, 0, fmt.Errorf("segment %s does not continue its predecessors: %w", seg, err)
		}
	}
	if tbl == nil {
		return nil, 0, fmt.Errorf("manifest lists no segments")
	}
	return tbl, mapped, nil
}

// openLog opens the table's write-ahead log, creating its directory and log
// for a fresh table; st.mu is held or st is not yet shared.
func (s *Store) openLog(st *tableState) error {
	if st.wal != nil {
		return nil
	}
	tdir := filepath.Join(s.opts.Dir, st.id)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return fmt.Errorf("durable: create table dir: %w", err)
	}
	w, err := openWAL(filepath.Join(tdir, walName))
	if err != nil {
		return err
	}
	w.obsFsync = s.mFsync
	st.wal = w
	return nil
}

// Tables returns the tables recovered at Open, keyed by ref. The snapshot
// is taken once; later Register/Append calls do not alter it (the caller —
// the server registry — owns the live copies).
func (s *Store) Tables() map[string]*store.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*store.Table, len(s.recovered))
	for ref, t := range s.recovered {
		out[ref] = t
	}
	return out
}

// Recovery reports what Open rebuilt.
func (s *Store) Recovery() RecoveryStats {
	return s.stats
}

// Residency returns the store's resident-budget manager: the live counters
// behind Options.MaxResidentBytes (faults, evictions, resident bytes), which
// the server surfaces through Stats and the obs registry.
func (s *Store) Residency() *store.Residency { return s.res }

// CommitImage durably stores the table image img under ref, replacing any
// previous contents: img is written verbatim as a fresh segment, the manifest
// commits, and the previous segments and WAL records become garbage, so an
// upload acknowledged by a durable server is on disk. It parses img's
// directory; the caller has checked the extents (store.DecodeImage).
func (s *Store) CommitImage(ref string, img []byte) error {
	if ref == "" {
		return fmt.Errorf("durable: empty table ref")
	}
	dir, err := store.ParseImage(img)
	if err != nil {
		return fmt.Errorf("durable: register %q: %w", ref, err)
	}
	st, err := s.stateFor(ref, true)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := s.openLog(st); err != nil {
		return err
	}
	// Empty the WAL — by folding any journaled batches into a segment of
	// the *old* contents — before the replacement commits. Ordering is the
	// crash-safety argument: if the WAL were still holding records when the
	// manifest swapped to the replacement, a crash before the reset would
	// leave records that recovery cannot tell from legal gap-appends and
	// would replay onto the new table. Compaction's own crash window is
	// covered (its records stay identifier-covered by the segment it
	// commits), so after this line the WAL is durably empty and the swap
	// below has no WAL state to race.
	if st.wal.size > 0 {
		if err := s.compactLocked(ref, st); err != nil {
			return fmt.Errorf("durable: fold wal before re-register of %q: %w", ref, err)
		}
	}
	old := st.segments
	if err := s.commitSegments(ref, st, nil, [][]byte{img}); err != nil {
		return err
	}
	st.tail = nil
	_, _, st.endID = span(dir)
	tdir := filepath.Join(s.opts.Dir, st.id)
	for _, stale := range old {
		os.Remove(filepath.Join(tdir, stale)) //nolint:errcheck // unreferenced; Open re-collects
	}
	return nil
}

// JournalImage journals the table image img, a batch of rows past the
// table's last identifier, for ref as one WAL record, verbatim. Under
// FsyncAlways the record is on stable storage when JournalImage returns, and
// the caller may acknowledge the append. Past CompactBytes of journaled
// records they compact into a new segment and the log resets. Like
// CommitImage, it parses img's directory and leaves the extents to the caller,
// who must leave img alone: the store holds it until that compaction.
func (s *Store) JournalImage(ref string, img []byte) error {
	dir, err := store.ParseImage(img)
	if err != nil {
		return fmt.Errorf("durable: append to %q: %w", ref, err)
	}
	st, err := s.stateFor(ref, false)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rows, start, end := span(dir)
	if rows > 0 && start <= st.endID {
		return fmt.Errorf("durable: append to %q rewinds identifiers (batch starts at %d, table ends at %d)",
			ref, start, st.endID)
	}
	journalStart := time.Now()
	if err := st.wal.append(img, s.opts.Fsync == FsyncAlways, s.opts.BatchBytes); err != nil {
		return err
	}
	if s.mAppend != nil {
		s.mAppend.ObserveDuration(time.Since(journalStart))
	}
	if rows > 0 {
		st.tail = append(st.tail, img)
		st.endID = end
	}
	// The append is durable the moment its WAL record is; compaction is an
	// optimization, so a compaction failure (disk full writing the segment,
	// say) must not fail the append — the caller would report an error for
	// data that IS on disk, and a retried batch would then trip the rewind
	// check above against its own journaled record. Log it and try again
	// at the next append; until one succeeds the WAL simply keeps growing.
	if st.wal.size >= s.opts.CompactBytes {
		if err := s.compactLocked(ref, st); err != nil {
			s.log("compaction deferred", "ref", ref, "err", err)
		}
	}
	return nil
}

// Register stores t under ref as CommitImage stores t's image.
func (s *Store) Register(ref string, t *store.Table) error {
	img, err := store.AppendImage(nil, t)
	if err != nil {
		return err
	}
	return s.CommitImage(ref, img)
}

// Append journals batch for ref as JournalImage journals batch's image.
func (s *Store) Append(ref string, batch *store.Table) error {
	img, err := store.AppendImage(nil, batch)
	if err != nil {
		return err
	}
	return s.JournalImage(ref, img)
}

// span returns an image directory's rows, its first partition's StartID and
// its last row's identifier (Table.EndID's rule).
func span(dir *store.ImageDir) (rows, start, end uint64) {
	for i, p := range dir.Parts {
		if i == 0 {
			start = p.StartID
		}
		rows, end = rows+uint64(p.Rows), p.StartID+uint64(p.Rows)-1
	}
	return rows, start, end
}

// compactLocked joins the table's journaled images into a new immutable
// segment and resets the WAL. st.mu is held. Crash windows are covered by
// recovery: a segment without a manifest commit is an orphan; a manifest
// commit without the WAL reset leaves covered records that replay detects
// via identifier coverage and skips.
func (s *Store) compactLocked(ref string, st *tableState) error {
	if len(st.tail) == 0 {
		// Only empty or superseded records: nothing worth a segment.
		return st.wal.reset()
	}
	img, err := joinImages(st.tail)
	if err != nil {
		return fmt.Errorf("durable: compact %q: %w", ref, err)
	}
	if err := s.commitSegments(ref, st, st.segments, [][]byte{img}); err != nil {
		return err
	}
	st.tail = nil
	if err := st.wal.reset(); err != nil {
		return err
	}
	s.log("wal compacted", "ref", ref, "segment", st.segments[len(st.segments)-1], "bytes", len(img), "segments", len(st.segments))
	return nil
}

// joinImages joins a run of images, in identifier order, into one image.
func joinImages(imgs [][]byte) ([]byte, error) {
	t, err := store.DecodeImages(imgs)
	if err != nil {
		return nil, err
	}
	return store.AppendImage(nil, t)
}

// Close syncs and closes every table's log and releases every segment
// mapping. The store is unusable after, and so are the tables recovered from
// it: their view partitions alias the released mappings.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	states := slices.Collect(maps.Values(s.tables))
	s.mu.Unlock()
	var first error
	for _, st := range states {
		st.mu.Lock()
		if st.wal != nil {
			if err := st.wal.close(); err != nil && first == nil {
				first = err
			}
			st.wal = nil
		}
		st.mu.Unlock()
	}
	s.mapsMu.Lock()
	mapped := s.maps
	s.maps = nil
	s.mapsMu.Unlock()
	for _, m := range mapped {
		if err := m.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stateFor resolves ref's state, allocating a directory ID for a new ref
// when create is set.
func (s *Store) stateFor(ref string, create bool) (*tableState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("durable: store is closed")
	}
	if st := s.tables[ref]; st != nil {
		return st, nil
	}
	if !create {
		return nil, fmt.Errorf("durable: unknown table ref %q (register it first)", ref)
	}
	st := &tableState{id: fmt.Sprintf("t%06d", s.man.NextID), nextSeq: 1}
	s.man.NextID++
	s.tables[ref] = st
	return st, nil
}

// commitTable updates one table's manifest entry and commits the manifest.
func (s *Store) commitTable(id, ref string, segments []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mt := s.man.table(id)
	if mt == nil {
		s.man.Tables = append(s.man.Tables, manifestTable{ID: id, Ref: ref})
		mt = &s.man.Tables[len(s.man.Tables)-1]
	}
	mt.Ref = ref
	mt.Segments = append([]string(nil), segments...)
	return s.man.commit(s.opts.Dir)
}

// removeOrphans deletes files the manifest does not reference: leftovers of
// registers and compactions that crashed before their commit.
func (s *Store) removeOrphans() error {
	known := make(map[string]map[string]bool, len(s.man.Tables)) // id -> segment set
	for _, mt := range s.man.Tables {
		segs := make(map[string]bool, len(mt.Segments))
		for _, seg := range mt.Segments {
			segs[seg] = true
		}
		known[mt.ID] = segs
	}
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("durable: scan %s: %w", s.opts.Dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == manifestName {
			continue
		}
		if !e.IsDir() {
			// Stray files at the root (a MANIFEST.tmp from a crashed commit).
			s.log("removing orphan file", "name", name)
			os.Remove(filepath.Join(s.opts.Dir, name)) //nolint:errcheck // best-effort GC
			continue
		}
		segs, ok := known[name]
		if !ok {
			s.log("removing orphan table dir", "name", name)
			os.RemoveAll(filepath.Join(s.opts.Dir, name)) //nolint:errcheck // best-effort GC
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.opts.Dir, name))
		if err != nil {
			return fmt.Errorf("durable: scan table dir %s: %w", name, err)
		}
		for _, f := range files {
			if f.Name() == walName || segs[f.Name()] {
				continue
			}
			s.log("removing orphan segment", "dir", name, "name", f.Name())
			os.Remove(filepath.Join(s.opts.Dir, name, f.Name())) //nolint:errcheck // best-effort GC
		}
	}
	return nil
}

func (s *Store) log(msg string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Info(msg, args...)
	}
}

// segName formats a segment file name; the sequence keeps append order
// lexical.
func segName(seq int) string { return fmt.Sprintf("seg-%06d.seg", seq) }

// nextSegSeq continues a table's segment numbering past its recovered set.
func nextSegSeq(segments []string) int {
	next := 1
	for _, seg := range segments {
		var n int
		if _, err := fmt.Sscanf(seg, "seg-%06d.seg", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}
