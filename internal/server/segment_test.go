package server

import (
	"errors"
	"hash/crc32"
	"net"
	"reflect"
	"strings"
	"testing"

	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/store"
	"seabed/internal/wire"
)

// shipServer returns a server serving on loopback, durable over durableDir
// when that is non-empty, and its address.
func shipServer(t *testing.T, durableDir string) (*Server, string) {
	t.Helper()
	srv := New(engine.NewCluster(engine.Config{Workers: 2}))
	if durableDir != "" {
		d, err := durable.Open(durable.Options{Dir: durableDir})
		if err != nil {
			t.Fatal(err)
		}
		srv.UseDurable(d)
		t.Cleanup(func() { d.Close() }) //nolint:errcheck // test teardown
	}
	_, addr := serveOn(t, srv)
	return srv, addr
}

// listing asks srv for ref's manifests as a peer would.
func listing(t *testing.T, srv *Server, ref string) []wire.TableManifest {
	t.Helper()
	typ, resp := srv.handleSegmentList(wire.EncodeSegmentListReq(ref))
	if typ != wire.MsgSegmentList {
		t.Fatalf("list %q: %s", ref, wire.DecodeError(resp))
	}
	ms, err := wire.DecodeSegmentList(resp)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// pieces fetches every piece m lists from srv, checking each against the
// listing's size and CRC.
func pieces(t *testing.T, srv *Server, m wire.TableManifest) [][]byte {
	t.Helper()
	var imgs [][]byte
	for _, si := range m.Segments {
		typ, resp := srv.handleSegmentFetch(wire.EncodeSegmentFetch(m.Ref, si.Name, ""))
		if typ != wire.MsgSegmentData {
			t.Fatalf("fetch %s of %q: %s", si.Name, m.Ref, wire.DecodeError(resp))
		}
		sd, err := wire.DecodeSegmentData(resp)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(sd.Data)) != si.Size || crc32.ChecksumIEEE(sd.Data) != si.CRC {
			t.Fatalf("piece %s of %q is not the listed one", si.Name, m.Ref)
		}
		imgs = append(imgs, sd.Data)
	}
	return imgs
}

// registerShipFixture registers "a" (rows 1–100, then 10 appended rows: a
// WAL tail on a durable daemon) and "e", a range registered empty past them.
func registerShipFixture(t *testing.T, srv *Server) {
	t.Helper()
	if err := srv.RegisterTable("a", durableFixtureTable(t, 1, 100)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.EncodeAppend("a", durableFixtureTable(t, 101, 10))
	if err != nil {
		t.Fatal(err)
	}
	if typ, resp := srv.handleAppend(payload); typ != wire.MsgOK {
		t.Fatalf("append: %s", wire.DecodeError(resp))
	}
	if err := srv.RegisterTable("e", durableFixtureTable(t, 111, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentListings: the all-tables listing is an inventory — refs, rows
// and envelopes, no pieces — while a single-ref listing lists the pieces a
// pull fetches. A durable daemon lists its committed segments, then its WAL
// tail; every durable table, a registered empty range included, has at
// least one committed segment. A memory-only daemon lists one table image.
func TestSegmentListings(t *testing.T) {
	for _, kind := range []string{"memory", "durable"} {
		t.Run(kind, func(t *testing.T) {
			dir := ""
			if kind == "durable" {
				dir = t.TempDir()
			}
			srv, _ := shipServer(t, dir)
			registerShipFixture(t, srv)

			want := []wire.TableManifest{
				{Ref: "a", Rows: 110, StartID: 1, EndID: 110},
				{Ref: "e", Rows: 0, StartID: 1, EndID: 0},
			}
			if got := listing(t, srv, ""); !reflect.DeepEqual(got, want) {
				t.Fatalf("inventory %+v, want %+v", got, want)
			}

			for _, inv := range want {
				ms := listing(t, srv, inv.Ref)
				if len(ms) != 1 {
					t.Fatalf("listing of %q has %d manifests", inv.Ref, len(ms))
				}
				m := ms[0]
				var names []string
				for _, si := range m.Segments {
					names = append(names, si.Name)
				}
				switch {
				case kind == "memory":
					if !reflect.DeepEqual(names, []string{wire.MemSegment}) {
						t.Fatalf("memory daemon lists %q for %q, want one %s", names, inv.Ref, wire.MemSegment)
					}
				case inv.Ref == "a":
					if len(names) != 2 || !strings.HasPrefix(names[0], "seg-") || names[1] != wire.WALSegment {
						t.Fatalf("durable daemon lists %q for %q, want a committed segment and the wal tail", names, inv.Ref)
					}
				default:
					if len(names) != 1 || !strings.HasPrefix(names[0], "seg-") {
						t.Fatalf("durable daemon lists %q for the empty range, want one committed segment", names)
					}
				}
				tbl, err := store.DecodeImages(pieces(t, srv, m))
				if err != nil {
					t.Fatal(err)
				}
				if got := inventory(inv.Ref, tbl); !reflect.DeepEqual(got, inv) {
					t.Fatalf("%q's pieces hold %+v, listed as %+v", inv.Ref, got, inv)
				}
			}
		})
	}
}

// TestSegmentListingIsOneCut: a single-ref listing taken while appends land
// counts exactly the rows its pieces hold. A durable daemon's pieces are
// read after the cut is taken, so the listed WAL tail must be the image of
// the batches appended by the time of the counted rows, no more.
func TestSegmentListingIsOneCut(t *testing.T) {
	srv, _ := shipServer(t, t.TempDir())
	if err := srv.RegisterTable("a", durableFixtureTable(t, 1, 100)); err != nil {
		t.Fatal(err)
	}
	const batches = 40
	var frames [][]byte
	tails := map[uint64]uint32{} // rows listed → CRC of the tail holding them
	var pending *store.Table
	for i := range batches {
		b := durableFixtureTable(t, uint64(101+10*i), 10)
		payload, err := wire.EncodeAppend("a", b)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, payload)
		if pending == nil {
			pending = b.Snapshot()
		} else if err := pending.AppendTable(b); err != nil {
			t.Fatal(err)
		}
		tails[pending.NumRows()+100] = crc32.ChecksumIEEE(serializeTable(t, pending))
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, payload := range frames {
			if typ, resp := srv.handleAppend(payload); typ != wire.MsgOK {
				t.Errorf("append: %s", wire.DecodeError(resp))
				return
			}
		}
	}()
	defer func() { <-done }() // the appender stops before the store closes
	for listed := false; !listed; {
		select {
		case <-done:
			listed = true // one last listing after every append
		default:
		}
		m := listing(t, srv, "a")[0]
		n := len(m.Segments)
		switch {
		case m.Rows == 100 && n == 1:
		case n == 2 && m.Segments[1].Name == wire.WALSegment && m.Segments[1].CRC == tails[m.Rows]:
		default:
			t.Fatalf("listing counts %d rows, but its pieces are %+v", m.Rows, m.Segments)
		}
	}
}

// TestPullInstallsImages: a pulled table is its source's pieces. A durable
// daemon commits each, the tail included, as a segment of its own, so its
// listing is the source's pieces in (size, CRC) order with no tail; a
// memory-only daemon serves the same table.
func TestPullInstallsImages(t *testing.T) {
	src, srcAddr := shipServer(t, t.TempDir())
	registerShipFixture(t, src)
	srcTable, err := src.lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	type piece struct {
		size uint64
		crc  uint32
	}
	sizes := func(m wire.TableManifest) []piece {
		var out []piece
		for _, si := range m.Segments {
			out = append(out, piece{si.Size, si.CRC})
		}
		return out
	}
	for _, kind := range []string{"memory", "durable"} {
		dir := ""
		if kind == "durable" {
			dir = t.TempDir()
		}
		dst, _ := shipServer(t, dir)
		for _, ref := range []string{"a", "e"} {
			if err := dst.pullTable(ref, srcAddr); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
		}
		got, err := dst.lookup("a")
		if err != nil {
			t.Fatal(err)
		}
		var gotImg, wantImg []byte
		if gotImg, err = store.AppendImage(nil, got); err != nil {
			t.Fatal(err)
		}
		if wantImg, err = store.AppendImage(nil, srcTable); err != nil {
			t.Fatal(err)
		}
		if string(gotImg) != string(wantImg) {
			t.Fatalf("%s: pulled table differs from its source", kind)
		}
		if kind == "durable" {
			want := sizes(listing(t, src, "a")[0])
			if got := sizes(listing(t, dst, "a")[0]); !reflect.DeepEqual(got, want) {
				t.Fatalf("installed segments %+v, want the source's pieces %+v", got, want)
			}
			if got := listing(t, dst, ""); !reflect.DeepEqual(got, listing(t, src, "")) {
				t.Fatalf("installed inventory %+v differs from the source's", got)
			}
		}
		if dst.Stats().ReplicaFetchBytes == 0 {
			t.Fatalf("%s: pull counted no fetched bytes", kind)
		}
	}
}

// lyingSource serves one canned listing and canned pieces to whoever dials
// it, as a peer daemon would, and is not bound to tell the truth.
func lyingSource(t *testing.T, m wire.TableManifest, data map[string][]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := wire.ReadFrame(conn); err != nil {
					return
				}
				wire.WriteFrame(conn, wire.MsgWelcome, wire.EncodeWelcome(wire.Version, 1, 0, 0)) //nolint:errcheck // a failed write ends the pull
				for {
					typ, p, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					resp := wire.EncodeSegmentList([]wire.TableManifest{m})
					if typ == wire.MsgSegmentFetch {
						_, name, _, _ := wire.DecodeSegmentFetch(p)
						typ, resp = wire.MsgSegmentData, wire.EncodeSegmentData(name, data[name])
					}
					if err := wire.WriteFrame(conn, typ, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPullRefusesLyingSource: a peer whose pieces are not what it listed, or
// are not images of one table, is refused with a *PullError naming it and
// the ref, and nothing is installed — a durable daemon then reopens over its
// directory without the table.
func TestPullRefusesLyingSource(t *testing.T) {
	lo := serializeTable(t, durableFixtureTable(t, 1, 10))
	hi := serializeTable(t, durableFixtureTable(t, 11, 10))
	junk := []byte("SBSG, and then not an image at all")
	info := func(name string, data []byte) wire.SegmentInfo {
		return wire.SegmentInfo{Name: name, Size: uint64(len(data)), CRC: crc32.ChecksumIEEE(data)}
	}
	honest := wire.TableManifest{Ref: "x", Rows: 20, StartID: 1, EndID: 20,
		Segments: []wire.SegmentInfo{info("one", lo), info("two", hi)}}
	data := map[string][]byte{"one": lo, "two": hi, "junk": junk}

	cases := map[string]func(m *wire.TableManifest){
		"size differs":   func(m *wire.TableManifest) { m.Segments[1].Size++ },
		"crc differs":    func(m *wire.TableManifest) { m.Segments[1].CRC ^= 1 },
		"rows differ":    func(m *wire.TableManifest) { m.Rows = 19 },
		"envelope moved": func(m *wire.TableManifest) { m.StartID, m.EndID = 2, 21 },
		"not an image":   func(m *wire.TableManifest) { m.Segments[1] = info("junk", junk) },
		"out of order":   func(m *wire.TableManifest) { m.Segments[0], m.Segments[1] = m.Segments[1], m.Segments[0] },
	}
	for name, lie := range cases {
		for _, kind := range []string{"memory", "durable"} {
			m := honest
			m.Segments = append([]wire.SegmentInfo(nil), honest.Segments...)
			lie(&m)
			from := lyingSource(t, m, data)
			dir := ""
			if kind == "durable" {
				dir = t.TempDir()
			}
			dst, _ := shipServer(t, dir)
			err := dst.pullTable("x", from)
			var pe *PullError
			if !errors.As(err, &pe) || pe.Ref != "x" || pe.From != from {
				t.Fatalf("%s, %s: pull returned %v, want a *PullError naming %q and %s", name, kind, err, "x", from)
			}
			if _, err := dst.lookup("x"); err == nil {
				t.Fatalf("%s, %s: refused table is in the registry", name, kind)
			}
			if dir == "" {
				continue
			}
			re, err := durable.Open(durable.Options{Dir: dir})
			if err != nil {
				t.Fatalf("%s: store does not reopen after a refused pull: %v", name, err)
			}
			if _, ok := re.Tables()["x"]; ok {
				t.Fatalf("%s: refused table recovered", name)
			}
			re.Close() //nolint:errcheck // read-only check
		}
	}

	// The honest listing of the same pieces installs.
	dst, _ := shipServer(t, t.TempDir())
	if err := dst.pullTable("x", lyingSource(t, honest, data)); err != nil {
		t.Fatal(err)
	}
}

// serializeTable renders tbl's image.
func serializeTable(t *testing.T, tbl *store.Table) []byte {
	t.Helper()
	img, err := store.AppendImage(nil, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
