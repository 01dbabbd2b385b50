package wire

// Segment shipping ----------------------------------------------------------
//
// Two exchanges move a table's durable bytes between daemons without the
// proxy in the loop. MsgSegmentList (an empty request) inventories tables:
// every table's ref, rows and identifier envelope. MsgSegmentFetch either
// asks for one table (answered by a MsgSegmentData frame per table image —
// the payload is the image, nothing else — and a terminal MsgSegmentList
// holding the table's one inventory entry) or instructs the receiving daemon
// to pull a whole table from a named peer and install it (answered by
// MsgOK). Each image checks itself: its header and extents carry their own
// CRCs (store.DecodeImage; docs/FORMAT.md §2.1), so no frame adds one.

// TableManifest inventories one table: its registry ref, row count and
// identifier envelope.
type TableManifest struct {
	// Ref is the table's registry reference.
	Ref string
	// Rows is the table's total row count.
	Rows uint64
	// StartID and EndID are the global identifiers of the table's first and
	// last rows. For an empty table EndID < StartID (the inverted envelope
	// shards use).
	StartID, EndID uint64
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
	}
	return e.buf
}

// DecodeSegmentList parses a MsgSegmentList response payload.
func DecodeSegmentList(p []byte) ([]TableManifest, error) {
	d := newDec(p)
	n := d.uint()
	if !d.checkCount(n, 4, "table manifests") {
		return nil, d.close("segment-list")
	}
	ms := make([]TableManifest, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var m TableManifest
		m.Ref = d.str()
		m.Rows = d.uint()
		m.StartID = d.uint()
		m.EndID = d.uint()
		ms = append(ms, m)
	}
	if err := d.close("segment-list"); err != nil {
		return nil, err
	}
	return ms, nil
}

// EncodeSegmentFetch builds a MsgSegmentFetch payload. With from empty it
// asks the receiving daemon for table ref's images; with from set (a
// host:port address) it instructs the receiving daemon to pull table ref
// from that peer and install it.
func EncodeSegmentFetch(ref, from string) []byte {
	e := &enc{}
	e.str(ref)
	e.str(from)
	return e.buf
}

// DecodeSegmentFetch parses a MsgSegmentFetch payload.
func DecodeSegmentFetch(p []byte) (ref, from string, err error) {
	d := newDec(p)
	ref = d.str()
	from = d.str()
	return ref, from, d.close("segment-fetch")
}
