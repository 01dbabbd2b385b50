package store

import (
	"errors"
	"sync"
	"testing"
)

// fakeLoader serves columns from an in-memory template and counts loads.
type fakeLoader struct {
	cols  []Column
	loads int
	fail  error
}

func (l *fakeLoader) LoadColumn(i int) (Column, error) {
	if l.fail != nil {
		return Column{}, l.fail
	}
	l.loads++
	return l.cols[i], nil
}

// viewFixture builds one view partition of n rows over a U64 and a Bytes
// column, backed by a counting loader.
func viewFixture(n int, startID uint64, res *Residency) (*Partition, *fakeLoader) {
	u := make([]uint64, n)
	b := make([][]byte, n)
	for i := range u {
		u[i] = startID + uint64(i)
		b[i] = []byte{byte(i), 0xEE}
	}
	l := &fakeLoader{cols: []Column{
		{Name: "m", Kind: U64, U64: u},
		{Name: "d", Kind: Bytes, Bytes: b},
	}}
	meta := []ColMeta{{Name: "m", Kind: U64}, {Name: "d", Kind: Bytes}}
	return NewViewPartition(startID, n, meta, l, res), l
}

func TestViewPartitionLazyLoad(t *testing.T) {
	p, l := viewFixture(64, 1, nil)
	if !p.IsView() {
		t.Fatal("IsView() = false for a view partition")
	}
	if p.NumRows() != 64 {
		t.Fatalf("NumRows() = %d before any pin, want 64", p.NumRows())
	}
	if got := p.MemBytes(); got != 0 {
		t.Fatalf("MemBytes() = %d before any pin, want 0", got)
	}
	if p.Cols[0].U64 != nil || p.Cols[1].Bytes != nil {
		t.Fatal("column vectors materialized before any pin")
	}

	// Pin only column 0: column 1 must stay unloaded.
	release, err := p.Pin([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if l.loads != 1 {
		t.Fatalf("loader ran %d times after pinning one column, want 1", l.loads)
	}
	if p.Cols[0].U64 == nil || p.Cols[1].Bytes != nil {
		t.Fatal("pin loaded the wrong column set")
	}
	if p.Cols[0].U64[7] != 8 {
		t.Fatalf("pinned column value = %d, want 8", p.Cols[0].U64[7])
	}
	release()

	// Pin all: only the remaining column faults.
	release, err = p.Pin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.loads != 2 {
		t.Fatalf("loader ran %d times after pinning all, want 2 (no redundant loads)", l.loads)
	}
	release()
	if p.MemBytes() == 0 {
		t.Fatal("MemBytes() = 0 with all columns resident")
	}
}

func TestViewPinErrors(t *testing.T) {
	p, _ := viewFixture(8, 1, nil)
	if _, err := p.Pin([]int{5}); err == nil {
		t.Fatal("pinning an out-of-range column index succeeded")
	}

	p2, l2 := viewFixture(8, 1, nil)
	l2.fail = errors.New("checksum mismatch")
	if _, err := p2.Pin(nil); err == nil || err.Error() != "checksum mismatch" {
		t.Fatalf("pin surfaced %v, want the loader's error", err)
	}

	// A loader returning the wrong row count or kind is a corrupt segment;
	// the pin must refuse rather than serve a misshapen partition.
	p3, l3 := viewFixture(8, 1, nil)
	l3.cols[0].U64 = l3.cols[0].U64[:4]
	if _, err := p3.Pin([]int{0}); err == nil {
		t.Fatal("pin accepted a short column")
	}
	p4, l4 := viewFixture(8, 1, nil)
	l4.cols[1].Kind = Str
	l4.cols[1].Bytes, l4.cols[1].Str = nil, make([]string, 8)
	if _, err := p4.Pin([]int{1}); err == nil {
		t.Fatal("pin accepted a kind mismatch")
	}
	meta := ColMeta{Name: "d", Kind: Fixed, Width: 16}
	p5 := NewViewPartition(1, 8, []ColMeta{meta}, &fakeLoader{cols: []Column{{Name: "d", Kind: Fixed, Width: 8, Fixed: make([]byte, 64)}}}, nil)
	if _, err := p5.Pin(nil); err == nil {
		t.Fatal("pin accepted a width mismatch")
	}
}

// extentLoader serves one Fixed column by decoding its extent, as a mapped
// segment's loader does once the CRC is verified.
type extentLoader struct {
	meta ColMeta
	rows int
	ext  []byte
}

func (l *extentLoader) LoadColumn(int) (Column, error) {
	col, _, err := DecodeColumnExtent(l.meta, l.rows, l.ext)
	return col, err
}

// TestViewPinFixedAllocatesNothing: faulting a fixed-width column is O(1) —
// the extent is the column's buffer — so a pin that faults allocates nothing,
// at 10 rows or at 100,000.
func TestViewPinFixedAllocatesNothing(t *testing.T) {
	for _, rows := range []int{10, 100_000} {
		meta := ColMeta{Name: "d", Kind: Fixed, Width: 16}
		l := &extentLoader{meta: meta, rows: rows, ext: make([]byte, 16*rows)}
		l.ext[16*(rows-1)] = 0xAB
		p := NewViewPartition(1, rows, []ColMeta{meta}, l, nil)
		idxs := []int{0}
		allocs := testing.AllocsPerRun(100, func() {
			release, faulted, err := p.PinStats(idxs)
			if err != nil || faulted != 1 || p.Cols[0].BytesAt(rows - 1)[0] != 0xAB {
				t.Fatalf("pin: faulted %d, err %v", faulted, err)
			}
			release()
			if p.dropResident() != uint64(16*rows) {
				t.Fatal("resident bytes of an aliased fixed column are not its extent bytes")
			}
		})
		if allocs != 0 {
			t.Errorf("%d rows: a faulting pin allocated %.1f times, want 0", rows, allocs)
		}
	}
}

func TestHeapPartitionPinIsNoop(t *testing.T) {
	tbl, err := Build("h", []Column{{Name: "m", Kind: U64, U64: []uint64{1, 2, 3}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := tbl.Parts[0]
	if p.IsView() {
		t.Fatal("heap partition reports IsView")
	}
	allocs := testing.AllocsPerRun(100, func() {
		release, err := p.Pin(nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
	})
	if allocs != 0 {
		t.Fatalf("heap Pin allocated %.1f times per call, want 0", allocs)
	}
}

func TestResidencyEviction(t *testing.T) {
	// Each fixture partition holds 64 rows × (8 u64 bytes + slice-header +
	// blob estimate); a budget below two partitions forces the LRU to hold at
	// most one resident at a time.
	res := NewResidency(1)
	a, la := viewFixture(64, 1, res)
	b, lb := viewFixture(64, 65, res)

	release, err := a.Pin(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pinning b while a is still pinned must not evict a (queries in flight
	// own their working set), even though the budget is blown.
	release2, err := b.Pin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.MemBytes() == 0 || b.MemBytes() == 0 {
		t.Fatal("a pinned partition was evicted")
	}
	release()
	release2()

	// The next charge evicts the cold ones: re-pin a, which should push the
	// now-unpinned b (and possibly a's own prior residency) out.
	if _, err := a.Pin(nil); err == nil {
		// a was dropped and refaulted, or still resident — either way b, the
		// least recently pinned unpinned partition, must be gone.
	} else {
		t.Fatal(err)
	}
	if b.MemBytes() != 0 {
		t.Fatal("unpinned partition survived a blown budget")
	}
	st := res.Stats()
	if st.Evictions == 0 || st.EvictedBytes == 0 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if st.ColumnFaults < 4 {
		t.Fatalf("ColumnFaults = %d, want ≥ 4 (two columns × two partitions)", st.ColumnFaults)
	}
	// Eviction discards vectors, not data: a re-pin faults them back intact.
	before := lb.loads
	release3, err := b.Pin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb.loads != before+2 {
		t.Fatalf("re-pin after eviction ran the loader %d more times, want 2", lb.loads-before)
	}
	if b.Cols[0].U64[0] != 65 {
		t.Fatalf("refaulted value = %d, want 65", b.Cols[0].U64[0])
	}
	release3()
	_ = la
}

func TestResidencyZeroBudgetNeverEvicts(t *testing.T) {
	res := NewResidency(0)
	parts := make([]*Partition, 8)
	for i := range parts {
		parts[i], _ = viewFixture(32, uint64(i*32)+1, res)
		release, err := parts[i].Pin(nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	st := res.Stats()
	if st.Evictions != 0 {
		t.Fatalf("unlimited budget evicted %d partitions", st.Evictions)
	}
	if st.ResidentBytes == 0 || st.ColumnFaults != 16 {
		t.Fatalf("stats = %+v, want 16 faults and nonzero resident bytes", st)
	}
}

// TestViewConcurrentPinsAndAppends exercises the locking story under -race:
// map tasks pin and release view partitions while appends grow the table
// copy-on-write and the residency manager evicts under a tiny budget.
func TestViewConcurrentPinsAndAppends(t *testing.T) {
	res := NewResidency(1) // evict on every charge
	var parts []*Partition
	for i := 0; i < 4; i++ {
		p, _ := viewFixture(64, uint64(i*64)+1, res)
		parts = append(parts, p)
	}
	tbl, err := Assemble("cc", parts)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex // guards tbl (copy-on-write swaps)
	snapshot := func() *Table {
		mu.Lock()
		defer mu.Unlock()
		return tbl
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				snap := snapshot()
				for _, p := range snap.Parts {
					idxs := []int{iter % 2}
					if iter%3 == 0 {
						idxs = nil
					}
					release, err := p.Pin(idxs)
					if err != nil {
						t.Errorf("pin: %v", err)
						return
					}
					if idxs == nil && p.IsView() && p.Cols[0].U64[0] != p.StartID {
						t.Errorf("pinned value = %d, want %d", p.Cols[0].U64[0], p.StartID)
						release()
						return
					}
					release()
				}
			}
		}(g)
	}
	// Appender: grow the table with heap batches while readers pin views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 50; iter++ {
			cur := snapshot()
			n := 16
			u := make([]uint64, n)
			b := make([][]byte, n)
			start := cur.EndID() + 1
			for i := range u {
				u[i] = start + uint64(i)
				b[i] = []byte{byte(i)}
			}
			batch, err := BuildFrom("cc", []Column{
				{Name: "m", Kind: U64, U64: u},
				{Name: "d", Kind: Bytes, Bytes: b},
			}, 1, start)
			if err != nil {
				t.Errorf("build batch: %v", err)
				return
			}
			grown, err := cur.WithAppended(batch)
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			mu.Lock()
			tbl = grown
			mu.Unlock()
		}
	}()
	wg.Wait()

	st := res.Stats()
	if st.ColumnFaults == 0 || st.Evictions == 0 {
		t.Fatalf("concurrent run recorded no pressure: %+v", st)
	}
	final := snapshot()
	want := uint64(4*64 + 50*16)
	if final.NumRows() != want {
		t.Fatalf("final rows = %d, want %d", final.NumRows(), want)
	}
}

// TestAssembleRejectsOverlap pins Assemble's identifier ordering contract,
// and that no partitions assemble into a table of none (an image may hold
// one).
func TestAssembleRejectsOverlap(t *testing.T) {
	a, _ := viewFixture(16, 1, nil)
	b, _ := viewFixture(16, 10, nil) // overlaps a's [1,16]
	if _, err := Assemble("bad", []*Partition{a, b}); err == nil {
		t.Fatal("Assemble accepted overlapping partitions")
	}
	if tbl, err := Assemble("empty", nil); err != nil || tbl.NumRows() != 0 || len(tbl.Parts) != 0 {
		t.Fatalf("Assemble of zero partitions = %+v, %v; want a table of none", tbl, err)
	}
}
