package store

import (
	"encoding/binary"
	"sync/atomic"
)

// Partition dictionaries. A 16-byte Fixed column — every DET(u64) and OPE
// value — with few distinct values in a partition is coded in memory, on a
// query's first use, as its distinct values and a 2-byte code per row, so a
// predicate or group key over it is resolved once per distinct ciphertext.
// Codes follow ciphertext equality within the partition, which DET shows the
// server already (§3). A dictionary lives and dies with its Partition, which
// copy-on-write appends share; it outlives the eviction of the column's
// vectors, and the residency budget does not count it.

const dictWidth = 16

// dictMaxProbe bounds one value's probe run in the build's table, at most a
// quarter full: honest ciphertexts never reach it, and values crafted to
// collide abandon the build instead of making it quadratic.
const dictMaxProbe = 32

// dictBuilds counts builds, coded or refused: a test hook. refusedDict marks
// a refused column, so it is not tried again.
var (
	dictBuilds  atomic.Uint64
	refusedDict = new(Dict)
)

// Dict is one partition's dictionary of one Fixed column: the distinct values
// in first-sight row order, and each row's code, the index of its value.
type Dict struct {
	Vals  []byte // 16 bytes a value
	Codes []uint16
}

// Len returns the number of distinct values.
func (d *Dict) Len() int { return len(d.Vals) / dictWidth }

// Val returns the value of code c.
func (d *Dict) Val(c int) []byte { return d.Vals[c*dictWidth : (c+1)*dictWidth : (c+1)*dictWidth] }

// dictLimit is the most distinct values a coded column of rows rows holds.
func dictLimit(rows int) int { return min(rows/4, 1<<16-1) }

// Dict returns column i's dictionary, building it on the partition's first
// call, or nil when the column is not 16-byte Fixed or holds more than
// dictLimit distinct values. The column must be pinned. Reads take no lock;
// tasks sharing the partition build under its lock, once.
func (p *Partition) Dict(i int) *Dict {
	if c := &p.Cols[i]; c.Kind != Fixed || c.Width != dictWidth {
		return nil
	}
	ds := p.dicts.Load()
	if ds == nil || (*ds)[i] == nil {
		p.dictMu.Lock()
		defer p.dictMu.Unlock()
		if ds = p.dicts.Load(); ds == nil || (*ds)[i] == nil {
			next := make([]*Dict, len(p.Cols))
			if ds != nil {
				copy(next, *ds)
			}
			if next[i], _ = buildDict(p.Cols[i].Fixed); next[i] == nil {
				next[i] = refusedDict
			}
			p.dicts.Store(&next)
			ds = &next
		}
	}
	if d := (*ds)[i]; d != refusedDict {
		return d
	}
	return nil
}

// buildDict codes a column of 16-byte values, or returns nil when it holds
// more than dictLimit distinct values or a probe run passes dictMaxProbe.
// probes counts the table entries it read.
func buildDict(buf []byte) (d *Dict, probes int) {
	dictBuilds.Add(1)
	rows := len(buf) / dictWidth
	limit := dictLimit(rows)
	if limit == 0 {
		return nil, 0
	}
	bits := 2
	for 1<<bits < 4*limit {
		bits++
	}
	table := make([]uint16, 1<<bits) // code+1; 0 is empty
	shift, mask := uint(64-bits), uint64(len(table)-1)
	d = &Dict{Codes: make([]uint16, rows)}
	for i := range d.Codes {
		v := buf[i*dictWidth : (i+1)*dictWidth : (i+1)*dictWidth]
		a, b := binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
		idx := dictHash(a, b) >> shift
		for run := 0; ; run++ {
			probes++
			e := table[idx]
			if e == 0 {
				if d.Len() == limit {
					return nil, probes
				}
				d.Vals = append(d.Vals, v...)
				e = uint16(d.Len())
				table[idx] = e
			} else if w := d.Val(int(e - 1)); binary.LittleEndian.Uint64(w) != a || binary.LittleEndian.Uint64(w[8:]) != b {
				if run == dictMaxProbe {
					return nil, probes
				}
				idx = (idx + 1) & mask
				continue
			}
			d.Codes[i] = e - 1
			break
		}
	}
	return d, probes
}

// dictHash mixes a value's two words; the build indexes by its high bits.
func dictHash(a, b uint64) uint64 {
	h := (a ^ b*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	return (h ^ h>>31) * 0x94d049bb133111eb
}
