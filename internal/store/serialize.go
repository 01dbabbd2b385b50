package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary table serialization. The format plays the role Protobuf-over-HDFS
// plays in the paper's prototype (§6.1) and defines the "disk size" column
// of Table 5.
//
// Layout (all integers varint unless noted):
//
//	magic "SBD1" | name | numParts
//	per partition: startID | numCols | numRows
//	  per column: name | kind
//	    U64:   numRows little-endian 8-byte words
//	    Bytes: per row: len | bytes
//	    Str:   per row: len | bytes
//	    Fixed: width | numRows × width bytes, no per-row length

const magic = "SBD1"

// WriteTo serializes the table. It returns the number of bytes written.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := &countingWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := bw.Write([]byte(magic)); err != nil {
		return bw.n, err
	}
	writeString(bw, t.Name)
	writeUvarint(bw, uint64(len(t.Parts)))
	for _, p := range t.Parts {
		if err := writePartition(bw, p); err != nil {
			return bw.n, err
		}
	}
	if err := bw.w.(*bufio.Writer).Flush(); err != nil {
		return bw.n, err
	}
	return bw.n, bw.err
}

// writePartition serializes one partition. A view partition serializes like
// any other, but its vectors must be pinned resident for the walk.
func writePartition(bw *countingWriter, p *Partition) error {
	release, err := p.Pin(nil)
	if err != nil {
		return err
	}
	defer release()
	writeUvarint(bw, p.StartID)
	writeUvarint(bw, uint64(len(p.Cols)))
	writeUvarint(bw, uint64(p.NumRows()))
	for i := range p.Cols {
		c := &p.Cols[i]
		writeString(bw, c.Name)
		writeUvarint(bw, uint64(c.Kind))
		switch c.Kind {
		case U64:
			var buf [8]byte
			for _, v := range c.U64 {
				binary.LittleEndian.PutUint64(buf[:], v)
				if _, err := bw.Write(buf[:]); err != nil {
					return err
				}
			}
		case Bytes:
			for _, b := range c.Bytes {
				writeUvarint(bw, uint64(len(b)))
				if _, err := bw.Write(b); err != nil {
					return err
				}
			}
		case Str:
			for _, s := range c.Str {
				writeString(bw, s)
			}
		case Fixed:
			writeUvarint(bw, uint64(c.Width))
			if _, err := bw.Write(c.Fixed); err != nil {
				return err
			}
		}
	}
	return nil
}

// DiskBytes returns the serialized size of the table without materializing
// the serialization (Table 5's "disk size").
func (t *Table) DiskBytes() uint64 {
	n, err := t.WriteTo(io.Discard)
	if err != nil {
		return 0
	}
	return uint64(n)
}

// Read deserializes a table written by WriteTo.
func Read(r io.Reader) (*Table, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: read header: %v", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("store: bad magic %q", head)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	nParts, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: read partition count: %v", err)
	}
	t := &Table{Name: name}
	for pi := uint64(0); pi < nParts; pi++ {
		startID, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: partition %d: %v", pi, err)
		}
		nCols, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: partition %d: %v", pi, err)
		}
		nRows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: partition %d: %v", pi, err)
		}
		p := &Partition{StartID: startID}
		for ci := uint64(0); ci < nCols; ci++ {
			cname, err := readString(br)
			if err != nil {
				return nil, err
			}
			kind, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("store: column %q: %v", cname, err)
			}
			// Counts and lengths are untrusted (this decoder sits behind
			// wire.DecodeRegister and reads segment files off disk), so no
			// allocation may be sized from a declared count alone: slices
			// grow by append with a capped initial capacity, and every blob
			// reads in bounded chunks. Memory use is therefore proportional
			// to bytes actually present in the stream, never to a hostile
			// header claiming 2^60 rows.
			c := Column{Name: cname, Kind: Kind(kind)}
			switch c.Kind {
			case U64:
				c.U64 = make([]uint64, 0, preallocRows(nRows))
				var buf [8]byte
				for i := uint64(0); i < nRows; i++ {
					if _, err := io.ReadFull(br, buf[:]); err != nil {
						return nil, fmt.Errorf("store: column %q row %d: %v", cname, i, err)
					}
					c.U64 = append(c.U64, binary.LittleEndian.Uint64(buf[:]))
				}
			case Bytes:
				c.Bytes = make([][]byte, 0, preallocRows(nRows))
				for i := uint64(0); i < nRows; i++ {
					n, err := binary.ReadUvarint(br)
					if err != nil {
						return nil, fmt.Errorf("store: column %q row %d: %v", cname, i, err)
					}
					b, err := readBlob(br, n)
					if err != nil {
						return nil, fmt.Errorf("store: column %q row %d: %v", cname, i, err)
					}
					c.Bytes = append(c.Bytes, b)
				}
			case Str:
				c.Str = make([]string, 0, preallocRows(nRows))
				for i := uint64(0); i < nRows; i++ {
					s, err := readString(br)
					if err != nil {
						return nil, fmt.Errorf("store: column %q row %d: %v", cname, i, err)
					}
					c.Str = append(c.Str, s)
				}
			case Fixed:
				width, err := binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("store: column %q: %v", cname, err)
				}
				if width < 1 || width > math.MaxInt32 || nRows > math.MaxInt/width {
					return nil, fmt.Errorf("store: column %q: %d values of width %d", cname, nRows, width)
				}
				c.Width = int(width)
				if c.Fixed, err = readBlob(br, nRows*width); err != nil {
					return nil, fmt.Errorf("store: column %q: %v", cname, err)
				}
			default:
				return nil, fmt.Errorf("store: column %q: unknown kind %d", cname, kind)
			}
			p.Cols = append(p.Cols, c)
		}
		t.Parts = append(t.Parts, p)
		t.rows += uint64(p.NumRows())
	}
	// Partitions decode independently, so a hostile stream can declare a
	// different column set per partition. Every in-process constructor
	// (Build, appends, SplitRanges) produces one layout for the whole table,
	// and the engine binds plans against that shared layout once per run
	// (Partition.ColIndex) — so reject divergent layouts here, at the trust
	// boundary, instead of letting a compiled column index read past (or
	// into the wrong) column of a later partition.
	if len(t.Parts) > 1 {
		ref := t.Parts[0]
		for pi, p := range t.Parts[1:] {
			if len(p.Cols) != len(ref.Cols) {
				return nil, fmt.Errorf("store: partition %d has %d columns, want %d", pi+1, len(p.Cols), len(ref.Cols))
			}
			for ci := range p.Cols {
				if p.Cols[ci].Meta() != ref.Cols[ci].Meta() {
					return nil, fmt.Errorf("store: partition %d column %d is %+v, want %+v",
						pi+1, ci, p.Cols[ci].Meta(), ref.Cols[ci].Meta())
				}
			}
		}
	}
	return t, nil
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

// Write implements io.Writer, counting bytes and latching the first error.
func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}

func writeUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // countingWriter latches the error
}

func writeString(w io.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	io.WriteString(w, s) //nolint:errcheck // countingWriter latches the error
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("store: read string length: %v", err)
	}
	buf, err := readBlob(br, n)
	if err != nil {
		return "", fmt.Errorf("store: read string: %v", err)
	}
	return string(buf), nil
}

// maxPrealloc caps any allocation sized from an untrusted declared count:
// larger claims must earn their memory by actually delivering bytes.
const maxPrealloc = 1 << 16

// preallocRows clamps a declared row count to a safe initial capacity.
func preallocRows(n uint64) int {
	return int(min(n, maxPrealloc))
}

// readBlob reads exactly n declared bytes into one buffer, grown in steps of
// at most maxPrealloc as the bytes arrive, so memory stays proportional to
// what the stream delivered and a hostile length cannot force a huge
// allocation before the stream runs dry.
func readBlob(br *bufio.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxPrealloc))
	for have := uint64(0); have < n; have = uint64(len(buf)) {
		step := int(min(n-have, maxPrealloc))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(br, buf[have:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
