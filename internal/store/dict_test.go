package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// dictColumn returns rows 16-byte values drawn from distinct random values,
// every one of them used, in random order.
func dictColumn(rng *rand.Rand, rows, distinct int) []byte {
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

// TestDictCodes: a column at the distinct limit is coded, each row's code
// naming its value and codes numbered by first sight; one value more, or a
// column of another kind or width, is not.
func TestDictCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, rows := range []int{3, 4, 100, 8192} {
		limit := dictLimit(rows)
		for _, distinct := range []int{1, 24, limit, limit + 1} {
			if distinct < 1 || distinct > rows {
				continue
			}
			buf := dictColumn(rng, rows, distinct)
			d, _ := buildDict(buf)
			if distinct > limit {
				if d != nil {
					t.Errorf("%d rows, %d distinct: coded past the limit of %d", rows, distinct, limit)
				}
				continue
			}
			if d == nil || d.Len() != distinct || len(d.Codes) != rows {
				t.Fatalf("%d rows, %d distinct: dictionary %v", rows, distinct, d)
			}
			next := 0
			for i, c := range d.Codes {
				if !bytes.Equal(d.Val(int(c)), buf[16*i:16*i+16]) {
					t.Fatalf("%d rows, %d distinct: row %d's code %d names another value", rows, distinct, i, c)
				}
				if int(c) > next {
					t.Fatalf("row %d has code %d before code %d was seen", i, c, next)
				}
				if int(c) == next {
					next++
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
	p := tbl.Parts[0]
	if p.Dict(0) != nil || p.Dict(1) != nil {
		t.Error("a u64 or 8-byte column got a dictionary")
	}
	if d := p.Dict(2); d == nil || d.Len() != 1 || p.Dict(2) != d {
		t.Errorf("a 16-byte column of one value: dictionary %v, then %v", d, p.Dict(2))
	}
}

// TestDictHostileCollisions: values crafted to share the build's table index
// abandon the dictionary once one value's probe run passes dictMaxProbe — the
// probes counted are those of the run up to it, however many rows follow, not
// a number that grows with the rows squared.
func TestDictHostileCollisions(t *testing.T) {
	const rows = 1 << 12
	limit := dictLimit(rows)
	bits := 2
	for 1<<bits < 4*limit {
		bits++
	}
	// Distinct values whose hash has the same high bits — the same table
	// index — more of them than a probe run may pass, then the same again to
	// the end of the column.
	rng := rand.New(rand.NewSource(51))
	var buf []byte
	for len(buf) < 16*(dictMaxProbe+8) {
		a, b := rng.Uint64(), rng.Uint64()
		if dictHash(a, b)>>(64-bits) == 0 {
			buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, a), b)
		}
	}
	for len(buf) < 16*rows {
		buf = append(buf, buf[:min(len(buf), 16*rows-len(buf))]...)
	}
	d, probes := buildDict(buf)
	if d != nil {
		t.Fatal("colliding values were coded")
	}
	// Value k (from 0) reads k+1 entries up to k = dictMaxProbe; the next one
	// reads dictMaxProbe+1 occupied entries and the build gives up.
	if want := (dictMaxProbe+1)*(dictMaxProbe+2)/2 + dictMaxProbe + 1; probes != want {
		t.Errorf("the build read %d entries before abandoning, want %d", probes, want)
	}

	// The same number of honest distinct values codes, each in a probe or few.
	d, probes = buildDict(dictColumn(rng, rows, limit))
	if d == nil || probes > 2*rows {
		t.Errorf("honest values at the limit: dictionary %v after %d probes", d != nil, probes)
	}
}

// TestDictOutlivesEviction: a view partition's dictionary lives with the
// partition, not with its column's vectors. Evicted under a budget and
// faulted back, the column is not coded again and its codes still name its
// values; a refused column is not tried again either.
func TestDictOutlivesEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const rows = 256
	meta := []ColMeta{{Name: "lo", Kind: Fixed, Width: 16}, {Name: "hi", Kind: Fixed, Width: 16}}
	res := NewResidency(1) // every charge evicts every other unpinned partition
	var parts []*Partition
	for i := range 2 {
		l := &fakeLoader{cols: []Column{
			{Name: "lo", Kind: Fixed, Width: 16, Fixed: dictColumn(rng, rows, 10)},
			{Name: "hi", Kind: Fixed, Width: 16, Fixed: dictColumn(rng, rows, rows)},
		}}
		parts = append(parts, NewViewPartition(uint64(1+i*rows), rows, meta, l, res))
	}
	p, other := parts[0], parts[1]
	built := dictBuilds.Load()
	release, err := p.Pin(nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.Dict(0), p.Dict(1)
	release()
	if lo == nil || hi != nil || dictBuilds.Load() != built+2 {
		t.Fatalf("first use: coded %v, refused %v, %d builds", lo != nil, hi == nil, dictBuilds.Load()-built)
	}
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
		if p.Dict(0) != lo || p.Dict(1) != nil {
			t.Fatal("a re-faulted column got another dictionary")
		}
		for i, c := range lo.Codes {
			if !bytes.Equal(lo.Val(int(c)), p.Cols[0].BytesAt(i)) {
				t.Fatalf("row %d's code names another value after the re-fault", i)
			}
		}
		release()
	}
	if n := dictBuilds.Load() - built; n != 2 {
		t.Errorf("%d builds over three evictions and re-faults, want the first 2", n)
	}
}

// TestDictConcurrentFirstUse: map tasks sharing a partition ask for its
// dictionaries at once; each column is built once and all see the same one.
func TestDictConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows, cols = 1024, 4
	var columns []Column
	for c := range cols {
		columns = append(columns, Column{Name: fmt.Sprint("c", c), Kind: Fixed, Width: 16, Fixed: dictColumn(rng, rows, 5+c)})
	}
	tbl, err := Build("t", columns, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := tbl.Parts[0]
	built := dictBuilds.Load()
	got := make([][cols]*Dict, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cols {
				got[g][(c+g)%cols] = p.Dict((c + g) % cols)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("task %d saw other dictionaries", g)
		}
	}
	if n := dictBuilds.Load() - built; n != cols {
		t.Errorf("%d builds for %d columns", n, cols)
	}
}

// BenchmarkBuildDict measures a build per row of an 8,192-row partition (a
// benchmark partition's size): at 24 and 365 distinct values (an hour and a
// day column), at the limit, and one past it, where the build is abandoned.
func BenchmarkBuildDict(b *testing.B) {
	const rows = 8192
	for _, distinct := range []int{24, 365, dictLimit(rows), dictLimit(rows) + 1} {
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			buf := dictColumn(rand.New(rand.NewSource(54)), rows, distinct)
			b.ReportAllocs()
			for range b.N {
				buildDict(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
