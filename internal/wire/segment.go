package wire

import (
	"fmt"
	"hash/crc32"
)

// Segment shipping ----------------------------------------------------------
//
// Three frames move a table's durable bytes between daemons without the
// proxy in the loop. MsgSegmentList inventories tables (names, sizes, CRCs,
// identifier envelopes); MsgSegmentFetch either asks for one segment's raw
// bytes (answered by MsgSegmentData, checksummed end-to-end) or instructs
// the receiving daemon to pull a whole table from a named peer and install
// it (answered by MsgOK). Two segment names are reserved for state that is
// not an on-disk file: WALSegment carries a durable table's uncompacted WAL
// tail, MemSegment carries a memory-only daemon's whole table. Every shipped
// payload — those two and the segment files — is a table image
// (store.AppendImage; docs/FORMAT.md §2).

// WALSegment is the reserved pseudo-segment name under which a durable
// daemon ships its uncompacted WAL tail: the payload is the pending rows'
// table image, built in memory, not a segment file.
const WALSegment = "@wal"

// MemSegment is the reserved pseudo-segment name under which a memory-only
// daemon ships a whole table: the payload is the table's image, built in
// memory rather than read from disk.
const MemSegment = "@mem"

// SegmentInfo describes one shippable segment of a table: its name (a
// seg-NNNNNN.seg file or a reserved pseudo-segment), its size in bytes, and
// a CRC-32 (IEEE) over those bytes.
type SegmentInfo struct {
	// Name is the segment file name or reserved pseudo-segment name.
	Name string
	// Size is the segment's byte length.
	Size uint64
	// CRC is the CRC-32 (IEEE) of the segment bytes.
	CRC uint32
}

// TableManifest inventories one table for segment shipping: its registry
// ref, row count, identifier envelope, and segment set in ship order.
type TableManifest struct {
	// Ref is the table's registry reference.
	Ref string
	// Rows is the table's total row count.
	Rows uint64
	// StartID and EndID bound the table's global row identifiers. For an
	// empty table EndID < StartID (the inverted envelope shards use).
	StartID, EndID uint64
	// Segments lists the table's shippable segments in install order.
	Segments []SegmentInfo
}

// SegmentData is a decoded MsgSegmentData payload: one segment's name and
// raw bytes. The CRC has already been verified by DecodeSegmentData.
type SegmentData struct {
	// Name echoes the fetched segment's name.
	Name string
	// Data holds the raw segment bytes.
	Data []byte
}

// EncodeSegmentListReq builds a MsgSegmentList request payload. An empty ref
// asks for every table's manifest.
func EncodeSegmentListReq(ref string) []byte {
	e := &enc{}
	e.str(ref)
	return e.buf
}

// DecodeSegmentListReq parses a MsgSegmentList request payload.
func DecodeSegmentListReq(p []byte) (ref string, err error) {
	d := newDec(p)
	ref = d.str()
	return ref, d.close("segment-list request")
}

// EncodeSegmentList builds a MsgSegmentList response payload.
func EncodeSegmentList(ms []TableManifest) []byte {
	e := &enc{}
	e.uint(uint64(len(ms)))
	for i := range ms {
		m := &ms[i]
		e.str(m.Ref)
		e.uint(m.Rows)
		e.uint(m.StartID)
		e.uint(m.EndID)
		e.uint(uint64(len(m.Segments)))
		for _, s := range m.Segments {
			e.str(s.Name)
			e.uint(s.Size)
			e.uint(uint64(s.CRC))
		}
	}
	return e.buf
}

// DecodeSegmentList parses a MsgSegmentList response payload.
func DecodeSegmentList(p []byte) ([]TableManifest, error) {
	d := newDec(p)
	n := d.uint()
	if !d.checkCount(n, 5, "table manifests") {
		return nil, d.close("segment-list")
	}
	ms := make([]TableManifest, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var m TableManifest
		m.Ref = d.str()
		m.Rows = d.uint()
		m.StartID = d.uint()
		m.EndID = d.uint()
		nSegs := d.uint()
		if !d.checkCount(nSegs, 3, "segment infos") {
			break
		}
		if nSegs > 0 {
			m.Segments = make([]SegmentInfo, 0, nSegs)
		}
		for j := uint64(0); j < nSegs && d.err == nil; j++ {
			var s SegmentInfo
			s.Name = d.str()
			s.Size = d.uint()
			s.CRC = uint32(d.uint())
			m.Segments = append(m.Segments, s)
		}
		ms = append(ms, m)
	}
	if err := d.close("segment-list"); err != nil {
		return nil, err
	}
	return ms, nil
}

// EncodeSegmentFetch builds a MsgSegmentFetch payload. With from empty it
// requests segment name of table ref from the receiving daemon; with from
// set (a host:port address) it instructs the receiving daemon to pull table
// ref from that peer and install it, and name is ignored.
func EncodeSegmentFetch(ref, name, from string) []byte {
	e := &enc{}
	e.str(ref)
	e.str(name)
	e.str(from)
	return e.buf
}

// DecodeSegmentFetch parses a MsgSegmentFetch payload.
func DecodeSegmentFetch(p []byte) (ref, name, from string, err error) {
	d := newDec(p)
	ref = d.str()
	name = d.str()
	from = d.str()
	return ref, name, from, d.close("segment-fetch")
}

// EncodeSegmentData builds a MsgSegmentData payload, stamping a CRC-32
// (IEEE) over the segment bytes so the fetching peer verifies the transfer
// end to end.
func EncodeSegmentData(name string, data []byte) []byte {
	e := &enc{}
	e.str(name)
	e.uint(uint64(crc32.ChecksumIEEE(data)))
	e.bytes(data)
	return e.buf
}

// DecodeSegmentData parses a MsgSegmentData payload and verifies its
// checksum; a corrupted transfer fails here rather than at install time.
func DecodeSegmentData(p []byte) (SegmentData, error) {
	d := newDec(p)
	var sd SegmentData
	sd.Name = d.str()
	sum := uint32(d.uint())
	sd.Data = d.bytes()
	if err := d.close("segment-data"); err != nil {
		return SegmentData{}, err
	}
	if got := crc32.ChecksumIEEE(sd.Data); got != sum {
		return SegmentData{}, fmt.Errorf("wire: segment %q checksum mismatch: frame says %08x, bytes hash to %08x", sd.Name, sum, got)
	}
	return sd, nil
}
