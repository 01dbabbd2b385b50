package wire

import (
	"fmt"

	"seabed/internal/store"
)

// Upload frames: a MsgRegister or MsgAppend payload is the ref the table will
// be addressable by in later plan frames, zero padding to the next 8-byte
// boundary, and the table's image (store.AppendImage) — the bytes a segment
// file holds, and the bytes an HDFS upload would carry in the paper's
// prototype (§6.1). The image runs to the end of the payload: the frame
// header already carries the length. The decoders return the image undecoded,
// a slice of the payload: the daemon decodes it once and a durable daemon
// writes it to disk. ReadFrame allocates each payload and the image starts
// 8-aligned inside it, so the decoded vectors alias the frame.

// EncodeRegister builds a MsgRegister payload.
func EncodeRegister(ref string, t *store.Table) ([]byte, error) {
	if ref == "" {
		return nil, fmt.Errorf("wire: encode register: empty table ref")
	}
	if t == nil {
		return nil, fmt.Errorf("wire: encode register: nil table")
	}
	e := &enc{}
	e.str(ref)
	e.align()
	p, err := store.AppendImage(e.buf, t)
	if err != nil {
		return nil, fmt.Errorf("wire: encode register: %v", err)
	}
	return p, nil
}

// EncodeAppend builds a MsgAppend payload: the target table's ref and the
// batch of new rows. The layout is identical to a register frame.
func EncodeAppend(ref string, batch *store.Table) ([]byte, error) {
	return EncodeRegister(ref, batch)
}

// DecodeAppend parses a MsgAppend payload.
func DecodeAppend(p []byte) (ref string, img []byte, err error) {
	return DecodeRegister(p)
}

// DecodeRegister parses a MsgRegister payload into its ref and its image: the
// rest of p from the 8-aligned offset after the ref, which the caller decodes
// and must leave alone afterwards.
func DecodeRegister(p []byte) (ref string, img []byte, err error) {
	d := newDec(p)
	ref = d.str()
	d.align()
	if d.err != nil {
		return "", nil, fmt.Errorf("wire: decode register: %v", d.err)
	}
	return ref, d.buf[d.off:], nil
}
