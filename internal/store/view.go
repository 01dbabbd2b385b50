package store

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Partition views: the lazy half of the disk→memory→wire story. A regular
// partition owns heap column vectors; a view partition starts as layout-only
// metadata (names and kinds, no data) backed by a ColumnLoader — in practice
// a memory-mapped durable segment — and materializes columns on first use.
// Queries pin exactly the columns they touch for the duration of a map task;
// a Residency budget evicts the least-recently-used unpinned partitions when
// the resident estimate exceeds `-max-resident`. Everything else in the
// package (layout checks, copy-on-write appends, identifier coverage) treats
// view and heap partitions identically, because a view partition keeps its
// Cols slice populated with Name, Kind and Width even while the vectors are
// absent.

// ColMeta describes one column's layout without data: what a view partition
// knows before a fault, and what an extent decoder is told about the extent.
type ColMeta struct {
	Name string
	Kind Kind
	// Width is a Fixed column's value size in bytes; 0 for every other kind.
	Width int
}

// ColumnLoader materializes a view partition's columns on demand. Load is
// always invoked with the owning view's lock held, so implementations need no
// synchronization of their own; they must return a column of exactly the
// view's row count whose vectors may alias loader-owned storage (an mmap),
// kept immutable and alive until the loader itself is closed.
type ColumnLoader interface {
	// LoadColumn returns column i of the viewed partition.
	LoadColumn(i int) (Column, error)
}

// partView is the lazy state of a view partition.
type partView struct {
	mu     sync.Mutex
	rows   int
	loader ColumnLoader
	res    *Residency
	loaded []bool
	pins   int
	bytes  uint64 // resident estimate of currently loaded vectors
	unpin  func() // the partition's unpin, bound once so a pin allocates nothing
}

// NewViewPartition returns a partition of `rows` rows whose column vectors
// load through loader on first pin. The partition's Cols carry the layout
// (Name, Kind, Width) immediately, so schema operations work without touching
// data.
// res, if non-nil, tracks the partition's resident bytes and may evict it
// while unpinned.
func NewViewPartition(startID uint64, rows int, meta []ColMeta, loader ColumnLoader, res *Residency) *Partition {
	p := &Partition{StartID: startID}
	p.Cols = make([]Column, len(meta))
	for i, m := range meta {
		p.Cols[i] = Column{Name: m.Name, Kind: m.Kind, Width: m.Width}
	}
	p.view = &partView{
		rows:   rows,
		loader: loader,
		res:    res,
		loaded: make([]bool, len(meta)),
		unpin:  p.unpin,
	}
	return p
}

// releaseNone is the no-op release returned when pinning a heap partition,
// shared so the hot path allocates nothing.
func releaseNone() {}

// Pin materializes the columns at idxs (nil means all), protects the
// partition from eviction, and returns the release that undoes the pin. On a
// heap partition it is a no-op. The returned column pointers (&p.Cols[i])
// stay valid until release is called; after release the residency manager may
// drop the vectors again at any time.
func (p *Partition) Pin(idxs []int) (release func(), err error) {
	release, _, err = p.PinStats(idxs)
	return release, err
}

// PinStats is Pin plus attribution: faulted reports how many of the pinned
// columns had to be materialized from their backing segments by this call
// (0 on a heap partition or a warm view). The per-query fault accounting in
// engine.OpStats reads this; the global Residency counters are unchanged.
func (p *Partition) PinStats(idxs []int) (release func(), faulted int, err error) {
	v := p.view
	if v == nil {
		return releaseNone, 0, nil
	}
	v.mu.Lock()
	var faultedBytes uint64
	var faultedCols int
	load := func(i int) error {
		if v.loaded[i] {
			return nil
		}
		col, err := v.loader.LoadColumn(i)
		if err != nil {
			return err
		}
		if col.Len() != v.rows {
			return fmt.Errorf("store: view column %q loaded %d rows, want %d", p.Cols[i].Name, col.Len(), v.rows)
		}
		if col.Kind != p.Cols[i].Kind || col.Width != p.Cols[i].Width {
			return fmt.Errorf("store: view column %q loaded as %v/%d, want %v/%d",
				p.Cols[i].Name, col.Kind, col.Width, p.Cols[i].Kind, p.Cols[i].Width)
		}
		p.Cols[i].U64, p.Cols[i].Bytes, p.Cols[i].Str, p.Cols[i].Fixed = col.U64, col.Bytes, col.Str, col.Fixed
		v.loaded[i] = true
		faultedBytes += p.Cols[i].memBytes()
		faultedCols++
		return nil
	}
	if idxs == nil {
		for i := range p.Cols {
			if err := load(i); err != nil {
				v.mu.Unlock()
				return nil, 0, err
			}
		}
	} else {
		for _, i := range idxs {
			if i < 0 || i >= len(p.Cols) {
				v.mu.Unlock()
				return nil, 0, fmt.Errorf("store: pin column %d of %d", i, len(p.Cols))
			}
			if err := load(i); err != nil {
				v.mu.Unlock()
				return nil, 0, err
			}
		}
	}
	v.pins++
	v.bytes += faultedBytes
	v.mu.Unlock()
	if v.res != nil {
		// Charged outside v.mu: the residency manager may evict other
		// partitions to make room, and eviction takes their view locks.
		v.res.charge(p, faultedBytes, faultedCols)
	}
	return v.unpin, faultedCols, nil
}

// unpin releases one Pin, making the partition evictable again once its pin
// count reaches zero.
func (p *Partition) unpin() {
	v := p.view
	v.mu.Lock()
	v.pins--
	v.mu.Unlock()
}

// dropResident discards the partition's loaded vectors if it is unpinned,
// returning the bytes freed (0 if pinned or nothing resident). Layout
// metadata survives; the next Pin faults the columns back in.
func (p *Partition) dropResident() uint64 {
	v := p.view
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.pins > 0 || v.bytes == 0 {
		return 0
	}
	for i := range p.Cols {
		p.Cols[i].U64, p.Cols[i].Bytes, p.Cols[i].Str, p.Cols[i].Fixed = nil, nil, nil, nil
		v.loaded[i] = false
	}
	freed := v.bytes
	v.bytes = 0
	return freed
}

// MemBytes estimates the partition's resident footprint: loaded vectors only
// for a view partition, all vectors for a heap partition.
func (p *Partition) MemBytes() uint64 {
	if v := p.view; v != nil {
		v.mu.Lock()
		defer v.mu.Unlock()
		return v.bytes
	}
	var n uint64
	for i := range p.Cols {
		n += p.Cols[i].memBytes()
	}
	return n
}

// IsView reports whether the partition lazily loads its columns from a
// backing segment rather than owning heap vectors.
func (p *Partition) IsView() bool { return p.view != nil }

// Assemble builds a table directly from pre-built partitions — the
// constructor of a decoded image, whose partitions are heap vectors aliasing
// the image or segment-backed views rather than slices of full-length heap
// columns. Partitions must share one column layout and appear in strictly
// increasing, non-overlapping identifier order (gaps allowed, as for shard
// tables). No partitions is a table with none.
func Assemble(name string, parts []*Partition) (*Table, error) {
	if len(parts) == 0 {
		return &Table{Name: name}, nil
	}
	t := &Table{Name: name, Parts: parts[:1:1], rows: uint64(parts[0].NumRows())}
	for _, p := range parts[1:] {
		next := &Table{Name: name, Parts: []*Partition{p}, rows: uint64(p.NumRows())}
		if err := t.AppendTable(next); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Residency enforces a resident-bytes budget across view partitions: every
// column fault charges the partition's estimate here, and when the total
// exceeds the budget the least-recently-pinned unpinned partitions are
// dropped until it fits. The budget is a watermark, not a hard cap — pinned
// partitions (queries in flight) are never dropped, so a single query's
// working set may transiently exceed it. A zero budget disables eviction but
// still counts faults and resident bytes, which is what the stats plane
// reports.
type Residency struct {
	budget uint64

	mu   sync.Mutex
	used uint64
	lru  *list.List // of *resEntry; front = most recently pinned
	elem map[*Partition]*list.Element

	faults       atomic.Uint64
	evictions    atomic.Uint64
	evictedBytes atomic.Uint64
}

// resEntry is the manager's shadow of one partition's resident bytes,
// tracked here so eviction can plan victims without taking partition locks.
type resEntry struct {
	p     *Partition
	bytes uint64
}

// NewResidency returns a manager with the given budget in bytes; 0 means
// unlimited (count, never evict).
func NewResidency(budget uint64) *Residency {
	return &Residency{
		budget: budget,
		lru:    list.New(),
		elem:   make(map[*Partition]*list.Element),
	}
}

// ResidencyStats is a point-in-time snapshot of the manager.
type ResidencyStats struct {
	// BudgetBytes is the configured watermark; 0 means unlimited.
	BudgetBytes uint64
	// ResidentBytes estimates the bytes currently materialized from views.
	ResidentBytes uint64
	// ColumnFaults counts columns materialized from backing segments.
	ColumnFaults uint64
	// Evictions counts partitions whose vectors were dropped under pressure.
	Evictions uint64
	// EvictedBytes totals the resident estimate reclaimed by evictions.
	EvictedBytes uint64
}

// Stats returns a snapshot of the manager's counters.
func (r *Residency) Stats() ResidencyStats {
	r.mu.Lock()
	used := r.used
	r.mu.Unlock()
	return ResidencyStats{
		BudgetBytes:   r.budget,
		ResidentBytes: used,
		ColumnFaults:  r.faults.Load(),
		Evictions:     r.evictions.Load(),
		EvictedBytes:  r.evictedBytes.Load(),
	}
}

// charge records that p faulted in `delta` more resident bytes across
// `faultedCols` columns (both may be 0 for a pin that found everything
// loaded), refreshes p's recency, and evicts cold partitions if the budget is
// now exceeded. Called without any partition lock held.
func (r *Residency) charge(p *Partition, delta uint64, faultedCols int) {
	if faultedCols > 0 {
		r.faults.Add(uint64(faultedCols))
	}
	r.mu.Lock()
	if e, ok := r.elem[p]; ok {
		r.lru.MoveToFront(e)
		e.Value.(*resEntry).bytes += delta
	} else if delta > 0 {
		r.elem[p] = r.lru.PushFront(&resEntry{p: p, bytes: delta})
	}
	r.used += delta
	var victims []*Partition
	if r.budget > 0 && r.used > r.budget {
		var planned uint64
		for e := r.lru.Back(); e != nil && r.used-planned > r.budget; e = e.Prev() {
			ent := e.Value.(*resEntry)
			if ent.p == p {
				continue // never evict the partition being pinned
			}
			victims = append(victims, ent.p)
			planned += ent.bytes
		}
	}
	r.mu.Unlock()
	for _, q := range victims {
		freed := q.dropResident() // takes q's view lock; skips if pinned
		if freed == 0 {
			continue
		}
		r.evictions.Add(1)
		r.evictedBytes.Add(freed)
		r.mu.Lock()
		if e, ok := r.elem[q]; ok {
			r.lru.Remove(e)
			delete(r.elem, q)
			r.used -= e.Value.(*resEntry).bytes
		}
		r.mu.Unlock()
	}
}
