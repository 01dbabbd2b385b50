package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"sync"
	"testing"
)

// codeColumnOf returns rows 16-byte values drawn from distinct random values,
// every one of them used, in random order.
func codeColumnOf(rng *rand.Rand, rows, distinct int) []byte {
	domain := make([]byte, 16*distinct)
	rng.Read(domain)
	buf := make([]byte, 0, 16*rows)
	for i := range rows {
		v := i % distinct
		if i >= distinct {
			v = rng.Intn(distinct)
		}
		buf = append(buf, domain[16*v:16*v+16]...)
	}
	return buf
}

// codedTableOf builds a table of one 16-byte column from buf, in parts
// partitions, at identifier start.
func codedTableOf(t testing.TB, buf []byte, parts int, start uint64) *Table {
	t.Helper()
	tbl, err := BuildFrom("t", []Column{{Name: "c", Kind: Fixed, Width: 16, Fixed: buf}}, parts, start)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// codeAll codes column 0 of every partition of tbl.
func codeAll(t testing.TB, tbl *Table) ([]byte, [][]uint16) {
	t.Helper()
	vals, codes, err := tbl.Codebook(0).Code(tbl.Parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return vals, codes
}

// checkCodes checks that every row's code names its value in vals.
func checkCodes(t *testing.T, tbl *Table, vals []byte, codes [][]uint16) {
	t.Helper()
	for p, part := range tbl.Parts {
		for i, c := range codes[p] {
			if !bytes.Equal(vals[16*int(c):16*int(c)+16], part.Cols[0].BytesAt(i)) {
				t.Fatalf("partition %d, row %d: code %d names another value", p, i, c)
			}
		}
	}
}

// TestCodebookCodes: a table whose column holds as many distinct values as
// the limit, half its rows, is coded, each row's code naming its value and
// codes numbered by first sight across the partitions; one value more, and
// the codebook refuses the column whole. A column of another kind or width
// has no codebook.
func TestCodebookCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, rows := range []int{4, 100, 8192} {
		limit := codeLimit(rows)
		for _, distinct := range []int{1, 24, limit, limit + 1} {
			if distinct < 1 || distinct > rows {
				continue
			}
			tbl := codedTableOf(t, codeColumnOf(rng, rows, distinct), 3, 1)
			vals, codes := codeAll(t, tbl)
			if distinct > limit {
				if len(vals) != 0 || codes[0] != nil || codes[len(codes)-1] != nil {
					t.Errorf("%d rows, %d distinct: coded past the limit of %d", rows, distinct, limit)
				}
				continue
			}
			if len(vals) != 16*distinct {
				t.Fatalf("%d rows, %d distinct: %d values", rows, distinct, len(vals)/16)
			}
			checkCodes(t, tbl, vals, codes)
			next := 0
			for _, cs := range codes {
				for i, c := range cs {
					if int(c) > next {
						t.Fatalf("row %d has code %d before code %d was seen", i, c, next)
					}
					if int(c) == next {
						next++
					}
				}
			}
		}
	}

	tbl, err := Build("t", []Column{
		{Name: "u", Kind: U64, U64: make([]uint64, 64)},
		{Name: "w8", Kind: Fixed, Width: 8, Fixed: make([]byte, 8*64)},
		{Name: "w16", Kind: Fixed, Width: 16, Fixed: make([]byte, 16*64)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Codebook(0) != nil || tbl.Codebook(1) != nil {
		t.Error("a u64 or 8-byte column got a codebook")
	}
	if b := tbl.Codebook(2); b == nil || tbl.Codebook(2) != b {
		t.Error("a 16-byte column's codebook is not made once")
	}
}

// collidingValues returns n distinct 16-byte values whose hash under seed
// has the same high 16 bits: the same table index at every size a codebook
// of fewer than 16 Ki values reaches.
func collidingValues(rng *rand.Rand, seed maphash.Seed, n int) []byte {
	var buf []byte
	v := make([]byte, 16)
	for len(buf) < 16*n {
		rng.Read(v)
		if maphash.Bytes(seed, v)>>48 == 0 {
			buf = append(buf, v...)
		}
	}
	return buf
}

// TestCodebookHostileCollisions: values that share the codebook table's
// index under its seed abandon the coding once one value's probe run passes
// codeMaxProbe — the probes counted are those of the run up to it, however
// many rows follow, not a number that grows with the rows squared — and the
// codebook holds none of them afterwards. Only that partition stays raw: the
// codebook goes on coding the next. The same values under another seed, as
// every other codebook draws, code in a probe or few: an upload cannot
// collide a codebook without its seed, which hashes both words of a value.
func TestCodebookHostileCollisions(t *testing.T) {
	const rows = 1 << 12
	rng := rand.New(rand.NewSource(51))
	seed := maphash.MakeSeed()
	colliding := collidingValues(rng, seed, codeMaxProbe+8)
	buf := colliding
	for len(buf) < 16*rows {
		buf = append(buf, buf[:min(len(buf), 16*rows-len(buf))]...)
	}
	book := newCodebook(seed)
	codes, probes, over := book.codeColumn(buf, codeLimit(rows))
	if codes != nil || over || len(book.vals) != 0 {
		t.Fatalf("colliding values: coded %v, over the limit %v, %d values kept", codes != nil, over, len(book.vals)/16)
	}
	// Value k (from 0) reads k+1 entries up to k = codeMaxProbe; the next one
	// reads codeMaxProbe+1 occupied entries and the coding gives up.
	if want := (codeMaxProbe+1)*(codeMaxProbe+2)/2 + codeMaxProbe + 1; probes != want {
		t.Errorf("the coding read %d entries before abandoning, want %d", probes, want)
	}
	for i, e := range book.table {
		if e != 0 {
			t.Fatalf("table entry %d holds code %d after the rollback", i, e-1)
		}
	}

	// Through Code: the colliding partition stays raw, the honest ones before
	// and after it code, and the codebook is not refused.
	honest := codeColumnOf(rng, 2*rows, 100)
	mixed := append(append(append([]byte(nil), honest[:16*rows]...), buf...), honest[16*rows:]...)
	tbl := codedTableOf(t, mixed, 3, 1)
	book = newCodebook(seed)
	vals, got, err := book.Code(tbl.Parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == nil || got[1] != nil || got[2] == nil || book.refused {
		t.Fatalf("coded %v, refused %v; want only the colliding partition raw", []bool{got[0] != nil, got[1] != nil, got[2] != nil}, book.refused)
	}
	checkCodes(t, &Table{Parts: []*Partition{tbl.Parts[0], tbl.Parts[2]}}, vals, [][]uint16{got[0], got[2]})

	// Under another seed the same values code, each in a probe or few.
	book = newCodebook(maphash.MakeSeed())
	codes, probes, _ = book.codeColumn(buf, codeLimit(rows))
	if codes == nil || probes > 2*rows {
		t.Errorf("values colliding under one seed, under another: coded %v after %d probes", codes != nil, probes)
	}

	// Values whose words cancel in a hash that mixes the seed into one word
	// only — a = X ^ w·0x9e3779b97f4a7c15 collides under every such seed —
	// code too.
	var cancel []byte
	for range codeMaxProbe + 8 {
		w := rng.Uint64()
		cancel = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(cancel, 0x5eab^w*0x9e3779b97f4a7c15), w)
	}
	book = newCodebook(maphash.MakeSeed())
	if codes, probes, _ = book.codeColumn(cancel, codeLimit(rows)); codes == nil || probes > 4*(codeMaxProbe+8) {
		t.Errorf("values cancelling word against word: coded %v after %d probes", codes != nil, probes)
	}

	// The same number of honest distinct values codes, each in a probe or few.
	book = newCodebook(seed)
	codes, probes, _ = book.codeColumn(codeColumnOf(rng, rows, codeLimit(rows)), codeLimit(rows))
	if codes == nil || probes > 2*rows {
		t.Errorf("honest values at the limit: coded %v after %d probes", codes != nil, probes)
	}
}

// TestCodebookOutlivesEviction: a view partition's codes live with the
// partition, not with its column's vectors. Evicted under a budget and
// faulted back, the column is not coded again and its codes still name its
// values.
func TestCodebookOutlivesEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const rows = 256
	meta := []ColMeta{{Name: "c", Kind: Fixed, Width: 16}}
	res := NewResidency(1) // every charge evicts every other unpinned partition
	var parts []*Partition
	for i := range 2 {
		l := &fakeLoader{cols: []Column{{Name: "c", Kind: Fixed, Width: 16, Fixed: codeColumnOf(rng, rows, 10)}}}
		parts = append(parts, NewViewPartition(uint64(1+i*rows), rows, meta, l, res))
	}
	tbl, err := Assemble("t", parts)
	if err != nil {
		t.Fatal(err)
	}
	built := codings.Load()
	vals, first := codeAll(t, tbl)
	if len(vals) != 16*20 || codings.Load() != built+2 {
		t.Fatalf("first use: %d values, %d codings", len(vals)/16, codings.Load()-built)
	}
	p, other := parts[0], parts[1]
	for range 3 {
		release, err := other.Pin(nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
		if p.MemBytes() != 0 {
			t.Fatal("the budget did not evict the coded partition")
		}
		release, err = p.Pin(nil)
		if err != nil {
			t.Fatal(err)
		}
		_, codes := codeAll(t, tbl)
		if &codes[0][0] != &first[0][0] {
			t.Fatal("a re-faulted column was coded again")
		}
		for i, c := range codes[0] {
			if !bytes.Equal(vals[16*int(c):16*int(c)+16], p.Cols[0].BytesAt(i)) {
				t.Fatalf("row %d's code names another value after the re-fault", i)
			}
		}
		release()
	}
	if n := codings.Load() - built; n != 2 {
		t.Errorf("%d codings over three evictions and re-faults, want the first 2", n)
	}
}

// TestCodebookConcurrentFirstUse: runs sharing a table ask for its columns'
// codes at once; each partition is coded once, and all see the same codes.
func TestCodebookConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows, cols, parts = 1024, 4, 4
	var columns []Column
	for c := range cols {
		columns = append(columns, Column{Name: fmt.Sprint("c", c), Kind: Fixed, Width: 16, Fixed: codeColumnOf(rng, rows, 5+c)})
	}
	tbl, err := Build("t", columns, parts)
	if err != nil {
		t.Fatal(err)
	}
	built := codings.Load()
	got := make([][cols][]*uint16, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cols {
				c := (k + g) % cols
				_, codes, err := tbl.Codebook(c).Code(tbl.Parts, c)
				if err != nil {
					t.Error(err)
					return
				}
				for _, cs := range codes {
					got[g][c] = append(got[g][c], &cs[0])
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for c := range cols {
			for p := range parts {
				if got[g][c][p] != got[0][c][p] {
					t.Fatalf("run %d saw other codes of column %d, partition %d", g, c, p)
				}
			}
		}
	}
	if n := codings.Load() - built; n != cols*parts {
		t.Errorf("%d codings for %d columns of %d partitions", n, cols, parts)
	}
}

// TestCodebookAppends: a table grown by WithAppended shares its codebook, so
// coding it codes only the new partitions, appending their new values after
// the old ones, whose codes do not change. A table built afresh from the same
// partitions — as a re-registered table is — starts a fresh codebook and codes
// them again.
func TestCodebookAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	domain := codeColumnOf(rng, 64, 64)
	pick := func(rows, distinct int) []byte {
		var buf []byte
		for i := range rows {
			v := i % distinct
			buf = append(buf, domain[16*v:16*v+16]...)
		}
		return buf
	}
	base := codedTableOf(t, pick(800, 20), 4, 1)
	vals0, codes0 := codeAll(t, base)
	built := codings.Load()
	batch := codedTableOf(t, pick(200, 30), 2, 801)
	grown, err := base.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Codebook(0) != base.Codebook(0) {
		t.Fatal("the grown table has a codebook of its own")
	}
	vals, codes := codeAll(t, grown)
	if n := codings.Load() - built; n != 2 {
		t.Errorf("the append coded %d partitions, want its 2", n)
	}
	if len(vals) != 16*30 || !bytes.Equal(vals[:len(vals0)], vals0) {
		t.Errorf("the codebook holds %d values after the append; the first 20 moved: %v", len(vals)/16, !bytes.Equal(vals[:len(vals0)], vals0))
	}
	for p := range codes0 {
		if &codes[p][0] != &codes0[p][0] {
			t.Errorf("partition %d was coded again", p)
		}
	}
	checkCodes(t, grown, vals, codes)

	again, err := Assemble("t", grown.Parts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Codebook(0) == grown.Codebook(0) {
		t.Fatal("a table built afresh shares its partitions' codebook")
	}
	built = codings.Load()
	vals, codes = codeAll(t, again)
	if n := codings.Load() - built; n != uint64(len(again.Parts)) {
		t.Errorf("a fresh codebook coded %d of %d partitions", n, len(again.Parts))
	}
	checkCodes(t, again, vals, codes)
}

// TestCodebookLimit: an appended partition that would take the codebook
// past half the rows coded with it stays raw, the partitions coded before
// keep their codes, and a later append that fits is coded. The outcome is
// the lineage's: coding through the older, smaller table first, or only
// through the newest, leaves the same partitions raw.
func TestCodebookLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	baseBuf := codeColumnOf(rng, 1000, 50)
	wideBuf := codeColumnOf(rng, 1200, 1200) // 50 + 1,200 > (1,000 + 1,200) / 2
	narrowBuf := codeColumnOf(rng, 100, 2)   // 50 + 2 ≤ (1,000 + 100) / 2
	lineage := func() (base, grown, newest *Table) {
		base = codedTableOf(t, baseBuf, 2, 1)
		grown, err := base.WithAppended(codedTableOf(t, wideBuf, 1, 1001))
		if err != nil {
			t.Fatal(err)
		}
		newest, err = grown.WithAppended(codedTableOf(t, narrowBuf, 1, 2201))
		if err != nil {
			t.Fatal(err)
		}
		return base, grown, newest
	}
	for _, older := range []bool{true, false} {
		base, grown, newest := lineage()
		codeAll(t, base)
		if older {
			if _, codes := codeAll(t, grown); codes[0] == nil || codes[1] == nil || codes[2] != nil {
				t.Fatalf("past the limit: coded %v", []bool{codes[0] != nil, codes[1] != nil, codes[2] != nil})
			}
		}
		vals, codes := codeAll(t, newest)
		if len(vals) != 16*52 || codes[0] == nil || codes[1] == nil || codes[2] != nil || codes[3] == nil {
			t.Errorf("older table first %v: %d values, coded %v", older, len(vals)/16,
				[]bool{codes[0] != nil, codes[1] != nil, codes[2] != nil, codes[3] != nil})
		}
	}

	// A first coding past the limit refuses the column whole: later appends
	// that would fit stay raw too.
	wide := codedTableOf(t, wideBuf, 2, 1)
	if vals, codes := codeAll(t, wide); len(vals) != 0 || codes[0] != nil || codes[1] != nil {
		t.Fatalf("a value per row coded: %d values", len(vals)/16)
	}
	grown, err := wide.WithAppended(codedTableOf(t, narrowBuf, 1, 1201))
	if err != nil {
		t.Fatal(err)
	}
	if _, codes := codeAll(t, grown); codes[2] != nil || !grown.Codebook(0).refused {
		t.Error("an append to a refused column was coded")
	}
}

// BenchmarkCode measures coding per row: a table of 8 partitions of 8,192
// rows (a benchmark range's shape) coded afresh, at 24 and 365 distinct
// values (an hour and a day column) and at 16,384 (a user id's share).
func BenchmarkCode(b *testing.B) {
	const rows, parts = 8192, 8
	for _, distinct := range []int{24, 365, 1 << 14} {
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			buf := codeColumnOf(rand.New(rand.NewSource(56)), rows*parts, distinct)
			b.ReportAllocs()
			for range b.N {
				codeAll(b, codedTableOf(b, buf, parts, 1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*parts), "ns/row")
		})
	}
}
