package store

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Table-wide codebooks. A 16-byte Fixed column — every DET(u64) and OPE
// value — is coded in memory, on a query's first use, against one codebook
// per column of the table's lineage: the column's distinct values in
// first-sight order, append-only, and per partition a 2-byte code per row
// that indexes them. So a predicate or a group key over the column is
// resolved once per distinct ciphertext of the table, and a group's slot can
// be its code. Codes follow ciphertext equality across the table, which DET
// shows the server already (§3).
//
// The tables WithAppended and AppendTable grow from a table share its
// codebooks, so an append codes only its new partitions and old codes never
// change; a table built or decoded afresh — a re-registered one — starts with
// none. Each partition keeps its codes beside a pointer to the codebook they
// index, and a partition met under another codebook is coded again. Codes
// live with the partition and outlive the eviction of the column's vectors;
// the residency budget counts neither them nor the codebooks.

const codeWidth = 16

// codeMaxProbe bounds one value's probe run in a codebook's table, at most a
// quarter full: honest ciphertexts never reach it, and values that collide
// anyway leave their partition raw instead of making its coding quadratic.
// The table hashes each value whole with Go's map hash (hash/maphash) under a
// seed drawn per codebook, so an upload cannot know which values collide.
const codeMaxProbe = 32

// codeLimit is the most distinct values a codebook holds once it has coded
// rows rows: half of them, so a column with a value per row is never coded,
// and what 2-byte codes can name.
func codeLimit(rows int) int { return min(rows/2, 1<<16-1) }

// codings counts partition codings attempted, coded or not: a test hook.
var codings atomic.Uint64

// Codebook is one column's distinct values across a table lineage, in
// first-sight order: code c names value c. It grows under its lock; readers
// take a published snapshot of the values, which later growth never writes
// into.
type Codebook struct {
	mu    sync.Mutex
	seed  maphash.Seed
	vals  []byte  // 16 bytes a value; past the published length only under mu
	table []int32 // code+1 at the high bits of the value's hash; 0 is empty
	shift uint
	rows  int // rows of the partitions coded
	// refused is set when the codebook's first coding crossed the limit: the
	// column holds more than one value per two rows and is never coded.
	refused bool
	pub     atomic.Pointer[[]byte]
}

func newCodebook(seed maphash.Seed) *Codebook {
	b := &Codebook{seed: seed, table: make([]int32, 64), shift: 64 - 6}
	b.pub.Store(new([]byte))
	return b
}

// partCodes is one partition column's codes under book; nil codes mark the
// partition raw under it.
type partCodes struct {
	book  *Codebook
	codes []uint16
}

// codesOf returns column col's codes, or nil when no codebook has seen it.
func (p *Partition) codesOf(col int) *partCodes {
	if cs := p.codes.Load(); cs != nil {
		return (*cs)[col]
	}
	return nil
}

// setCodes replaces column col's codes, copy-on-write under the partition's
// lock: codebooks of other columns publish to it too.
func (p *Partition) setCodes(col int, pc *partCodes) {
	p.codeMu.Lock()
	defer p.codeMu.Unlock()
	next := make([]*partCodes, len(p.Cols))
	if cs := p.codes.Load(); cs != nil {
		copy(next, *cs)
	}
	next[col] = pc
	p.codes.Store(&next)
}

// lineage holds the codebooks of a table and the tables grown from it, one
// per column, each made on its first use.
type lineage struct {
	mu    sync.Mutex
	books []*Codebook
}

// lineage returns the table's codebooks, making the set on the first call.
func (t *Table) lineage() *lineage {
	if l := t.books.Load(); l != nil {
		return l
	}
	t.books.CompareAndSwap(nil, &lineage{})
	return t.books.Load()
}

// Codebook returns the codebook of column col, made on the first call for
// the table's lineage, or nil when the column is not 16-byte Fixed.
func (t *Table) Codebook(col int) *Codebook {
	if len(t.Parts) == 0 || col < 0 || col >= len(t.Parts[0].Cols) {
		return nil
	}
	if c := &t.Parts[0].Cols[col]; c.Kind != Fixed || c.Width != codeWidth {
		return nil
	}
	l := t.lineage()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.books) < len(t.Parts[0].Cols) {
		l.books = append(l.books, make([]*Codebook, len(t.Parts[0].Cols)-len(l.books))...)
	}
	if l.books[col] == nil {
		l.books[col] = newCodebook(maphash.MakeSeed())
	}
	return l.books[col]
}

// Code makes sure every partition of parts has column col coded under the
// codebook, or marked raw under it, and returns the codebook's values — K
// codes' worth, covering every code returned — with each partition's codes,
// nil where it is raw. A partition already seen is read without the lock; the
// others are coded in order under it, each pinned for its one pass.
//
// The limit is a property of the lineage's partitions, not of the table that
// asks: codeLimit of the rows coded so far with the partition's own. A
// partition whose new values would pass it stays raw, as does one with a
// probe run past codeMaxProbe; later partitions are still tried, each once.
// Partitions are coded in lineage order (an older table's are a prefix of a
// newer one's), so past the first coding which stay raw does not depend on
// which table asks. The codebook's first coding is judged whole, against the rows of every
// partition it codes: parts is a whole table (the engine codes every
// partition of its table, not only its run's range), so one that passes the
// limit is a table holding more than one value per two rows, and the column
// is refused whole, for good. The values and codes returned are read-only.
func (b *Codebook) Code(parts []*Partition, col int) (vals []byte, codes [][]uint16, err error) {
	codes = make([][]uint16, len(parts))
	if b.seen(parts, col, codes) {
		return *b.pub.Load(), codes, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	fresh := b.rows == 0 && !b.refused
	pending := 0
	for _, p := range parts {
		if pc := p.codesOf(col); pc == nil || pc.book != b {
			pending += p.NumRows()
		}
	}
	rows := b.rows
	type coding struct {
		p     *Partition
		codes []uint16
	}
	var done []coding
	for i, p := range parts {
		if pc := p.codesOf(col); pc != nil && pc.book == b {
			codes[i] = pc.codes
			continue
		}
		var c []uint16
		if !b.refused {
			release, err := p.Pin([]int{col})
			if err != nil {
				return nil, nil, err
			}
			limit := codeLimit(rows + p.NumRows())
			if fresh {
				limit = codeLimit(pending)
			}
			var over bool
			c, _, over = b.codeColumn(p.Cols[col].Fixed, limit)
			release()
			if c != nil {
				rows += len(c)
			}
			if over && fresh {
				b.refuse()
				for j := range done {
					done[j].codes = nil
				}
				clear(codes)
			}
		}
		done = append(done, coding{p, c})
		codes[i] = c
	}
	// The values first: a reader that finds a partition's codes then finds
	// values for every one of them.
	vals = b.vals
	b.pub.Store(&vals)
	if !b.refused {
		b.rows = rows
	}
	for _, d := range done {
		d.p.setCodes(col, &partCodes{book: b, codes: d.codes})
	}
	return vals, codes, nil
}

// seen fills codes from partitions every one of which the codebook has
// seen, and reports whether they all were.
func (b *Codebook) seen(parts []*Partition, col int, codes [][]uint16) bool {
	for i, p := range parts {
		pc := p.codesOf(col)
		if pc == nil || pc.book != b {
			return false
		}
		codes[i] = pc.codes
	}
	return true
}

// refuse empties a codebook whose first coding passed the limit, for good.
func (b *Codebook) refuse() { b.vals, b.table, b.refused = nil, nil, true }

// codeColumn codes a column of 16-byte values, adding the values it has not
// seen, or returns nil, adding none, when the codebook would pass limit
// (over) or a probe run passes codeMaxProbe. probes counts the table entries
// it read. The caller holds mu.
func (b *Codebook) codeColumn(buf []byte, limit int) (codes []uint16, probes int, over bool) {
	codings.Add(1)
	k0 := len(b.vals) / codeWidth
	codes = make([]uint16, len(buf)/codeWidth)
	for i := range codes {
		v := buf[i*codeWidth : (i+1)*codeWidth : (i+1)*codeWidth]
		a, w := binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
		mask := uint64(len(b.table) - 1)
		idx := maphash.Bytes(b.seed, v) >> b.shift
		for run := 0; ; run++ {
			probes++
			e := b.table[idx]
			if e == 0 {
				k := len(b.vals) / codeWidth
				if k >= limit {
					b.rollback(k0)
					return nil, probes, true
				}
				b.vals = append(b.vals, v...)
				b.table[idx] = int32(k + 1)
				codes[i] = uint16(k)
				if 4*(k+1) >= len(b.table) {
					b.grow()
				}
				break
			}
			if x := b.vals[int(e-1)*codeWidth:]; binary.LittleEndian.Uint64(x) == a && binary.LittleEndian.Uint64(x[8:]) == w {
				codes[i] = uint16(e - 1)
				break
			}
			if run == codeMaxProbe {
				b.rollback(k0)
				return nil, probes, false
			}
			idx = (idx + 1) & mask
		}
	}
	return codes, probes, false
}

// rollback drops the values from code k0 on, which no reader has been
// given: with linear probing, entries added last are on no older value's
// probe run, so clearing them leaves the table whole.
func (b *Codebook) rollback(k0 int) {
	b.vals = b.vals[:k0*codeWidth]
	for i, e := range b.table {
		if int(e) > k0 {
			b.table[i] = 0
		}
	}
}

// grow doubles the table and reinserts every value.
func (b *Codebook) grow() {
	b.table = make([]int32, 2*len(b.table))
	b.shift--
	mask := uint64(len(b.table) - 1)
	for k := range len(b.vals) / codeWidth {
		idx := maphash.Bytes(b.seed, b.vals[k*codeWidth:(k+1)*codeWidth]) >> b.shift
		for b.table[idx] != 0 {
			idx = (idx + 1) & mask
		}
		b.table[idx] = int32(k + 1)
	}
}
