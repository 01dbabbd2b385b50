// Package wire defines Seabed's client↔server wire protocol: the framing and
// binary payload codecs that let the trusted proxy (internal/client) drive an
// untrusted engine running in another process, across a TCP connection.
//
// It plays the role the Spark RPC + Protobuf layer plays in the paper's
// prototype (§6.1): varint-heavy, length-prefixed payloads, no reflection,
// with tables and column data carried in the columnar store's fixed-width
// encodings (internal/store's table image and column extents).
//
// # Framing
//
// Every message is one frame:
//
//	type     1 byte  (MsgType)
//	length   4 bytes big-endian payload size
//	payload  length bytes
//
// A connection opens with a Hello/Welcome version handshake; after that the
// client sends request frames (MsgRegister, MsgRun) and the server answers
// each with exactly one terminal response frame (MsgOK, MsgResult, or
// MsgError). Two exceptions, both for query lifecycle management: a MsgRun's
// terminal response may be preceded by any number of MsgResultChunk frames
// carrying scan rows as column extents (colchunk.go, docs/FORMAT.md), and the
// client may send MsgCancel while a MsgRun is in flight — Cancel gets no
// response of its own, the canceled run's terminal frame closes the exchange.
//
// # Payloads
//
// Payload codecs live beside the types they serialize:
//
//	plan.go    engine.Plan requests (tables travel by reference, not value)
//	result.go  engine.Result + engine.Metrics responses
//	table.go   upload frames wrapping store's table image
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"seabed/internal/idlist"
)

// Version is the protocol version. There is one: the client's Hello carries
// it, the server's Welcome echoes it, and each side rejects a peer that names
// any other — the server with a "protocol version %d, want %d" MsgError, the
// client with a diagnosis naming the version the server answered. Changing a
// frame means bumping Version and upgrading both sides (docs/FORMAT.md §4.5).
const Version = 16

// checkVersion guards the codecs that take the connection's version as an
// argument: nothing branches on it, and any value but Version is an error.
func checkVersion(version uint64, what string) error {
	if version != Version {
		return fmt.Errorf("wire: %s: protocol version %d, want %d", what, version, Version)
	}
	return nil
}

// MaxFrame bounds a frame's payload (1 GiB), protecting both ends from
// corrupt or hostile length prefixes.
const MaxFrame = 1 << 30

// MsgType tags a frame.
type MsgType byte

const (
	// MsgHello opens a connection (client → server): protocol version.
	MsgHello MsgType = 1 + iota
	// MsgWelcome answers a Hello (server → client): version + worker count.
	MsgWelcome
	// MsgRegister ships an encrypted physical table (client → server).
	MsgRegister
	// MsgAppend ships a batch of new rows for an already-registered table
	// (client → server). Its payload has the register-frame layout, but only
	// the batch crosses the wire — uploads are "a continuing process" (§4.1)
	// and re-shipping the whole table per batch would be quadratic.
	MsgAppend
	// MsgRun submits a physical plan (client → server).
	MsgRun
	// MsgOK acknowledges a request with no result payload (server → client).
	MsgOK
	// MsgResult carries a plan's result (server → client). For scan plans it
	// is preceded by the scan rows in MsgResultChunk frames; its own Scan
	// section is then empty.
	MsgResult
	// MsgError carries a request-level failure (server → client).
	MsgError
	// MsgCancel (client → server) asks the server to abort the connection's
	// in-flight plan; the aborted MsgRun still gets its terminal response
	// (normally a MsgError). Cancel itself is never answered, so a Cancel
	// that crosses the response in flight is silently ignored — cancellation
	// is best-effort on an untrusted server, and the client enforces its own
	// deadline regardless.
	MsgCancel
	// MsgResultChunk carries one batch of scan rows (server → client),
	// letting large scans stream instead of materializing in one frame.
	MsgResultChunk
	// MsgSegmentList is both the request and the response of a segment
	// inventory exchange: the request is empty, the response lists every
	// table's ref, rows and identifier envelope (segment.go). It is also the
	// terminal frame of a table fetch, holding that table's one entry.
	MsgSegmentList
	// MsgSegmentFetch names a table. With an empty From it asks the
	// receiving daemon for the table (answered by MsgSegmentData frames and a
	// terminal MsgSegmentList); with From set it instructs the receiving
	// daemon to fetch the table from the peer at From, check the images, and
	// install it (answered by MsgOK) — daemon-to-daemon healing with no proxy
	// re-upload.
	MsgSegmentFetch
	// MsgSegmentData carries one table image of a fetched table (server →
	// client); the payload is the image. Its header and extent CRCs are the
	// transfer's checksums.
	MsgSegmentData
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgRegister:
		return "register"
	case MsgAppend:
		return "append"
	case MsgRun:
		return "run"
	case MsgOK:
		return "ok"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgCancel:
		return "cancel"
	case MsgResultChunk:
		return "result-chunk"
	case MsgSegmentList:
		return "segment-list"
	case MsgSegmentFetch:
		return "segment-fetch"
	case MsgSegmentData:
		return "segment-data"
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: %v frame of %d bytes exceeds MaxFrame", t, len(payload))
	}
	var head [5]byte
	head[0] = byte(t)
	binary.BigEndian.PutUint32(head[1:], uint32(len(payload)))
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("wire: write %v header: %w", t, err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write %v payload: %w", t, err)
	}
	return nil
}

// ReadFrame reads one frame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	t := MsgType(head[0])
	n := binary.BigEndian.Uint32(head[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: %v frame of %d bytes exceeds MaxFrame", t, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read %v payload: %w", t, err)
	}
	return t, payload, nil
}

// Handshake payloads ------------------------------------------------------

// EncodeHello builds a MsgHello payload: this build's Version.
func EncodeHello() []byte {
	e := &enc{}
	e.uint(Version)
	return e.buf
}

// DecodeHello parses a MsgHello payload.
func DecodeHello(p []byte) (version uint64, err error) {
	d := newDec(p)
	version = d.uint()
	return version, d.close("hello")
}

// EncodeWelcome builds a MsgWelcome payload. version is the server's protocol
// version. shardIndex/shardCount declare the server's
// shard identity (the daemon's -shard i/n flag); shardCount 0 means the
// server declares none, which clients accept anywhere.
func EncodeWelcome(version uint64, workers, shardIndex, shardCount int) []byte {
	e := &enc{}
	e.uint(version)
	e.uint(uint64(workers))
	e.uint(uint64(shardIndex))
	e.uint(uint64(shardCount))
	return e.buf
}

// DecodeWelcome parses a MsgWelcome payload.
func DecodeWelcome(p []byte) (version uint64, workers, shardIndex, shardCount int, err error) {
	d := newDec(p)
	version = d.uint()
	workers = int(d.uint())
	shardIndex = int(d.uint())
	shardCount = int(d.uint())
	return version, workers, shardIndex, shardCount, d.close("welcome")
}

// EncodeError builds a MsgError payload.
func EncodeError(msg string) []byte {
	e := &enc{}
	e.str(msg)
	return e.buf
}

// DecodeError parses a MsgError payload. A malformed payload still yields a
// usable message.
func DecodeError(p []byte) string {
	d := newDec(p)
	msg := d.str()
	if d.err != nil {
		return fmt.Sprintf("malformed error frame (%d bytes)", len(p))
	}
	return msg
}

// CodecByName resolves an identifier-list codec by its Name(), inverting the
// codec field of plan and result payloads. The empty name resolves to nil
// (meaning "engine default").
func CodecByName(name string) (idlist.Codec, error) {
	if name == "" {
		return nil, nil
	}
	for _, c := range idlist.AllCodecs() {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("wire: unknown id-list codec %q", name)
}

// Payload primitives ------------------------------------------------------
//
// enc appends to a byte slice; dec consumes one and latches the first error,
// so codecs read fields unconditionally and check once at the end — the same
// discipline store's image parser uses.

type enc struct{ buf []byte }

func (e *enc) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) int(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) f64(v float64) { e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *enc) bytes(b []byte) {
	e.uint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *enc) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

type dec struct {
	buf []byte
	off int
	err error
}

func newDec(p []byte) *dec { return &dec{buf: p} }

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s at offset %d", what, d.off)
	}
}

func (d *dec) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	v := d.buf[d.off]
	d.off++
	return v != 0
}

func (d *dec) bytes() []byte {
	n := d.uint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out
}

func (d *dec) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// checkCount guards slice preallocation against hostile counts: a count of
// n elements, each consuming at least minBytes of payload, cannot exceed the
// bytes remaining. Reports whether decoding may proceed.
func (d *dec) checkCount(n uint64, minBytes int, what string) bool {
	if d.err != nil {
		return false
	}
	if n > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		d.fail(what)
		return false
	}
	return true
}

// close finishes a decode: it reports the latched error, if any, and rejects
// trailing garbage.
func (d *dec) close(what string) error {
	if d.err != nil {
		return fmt.Errorf("wire: decode %s: %v", what, d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: decode %s: %d trailing bytes", what, len(d.buf)-d.off)
	}
	return nil
}
