package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"slices"
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

// inventoryOf asks srv for its inventory as a peer would.
func inventoryOf(t *testing.T, srv *Server) []wire.TableManifest {
	t.Helper()
	typ, resp := srv.handleSegmentList(nil)
	if typ != wire.MsgSegmentList {
		t.Fatalf("inventory: %s", wire.DecodeError(resp))
	}
	ms, err := wire.DecodeSegmentList(resp)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// fetch asks srv for table ref as a puller would: the images it streams, one
// MsgSegmentData frame each, and the terminal inventory entry.
func fetch(t *testing.T, srv *Server, ref string) ([][]byte, wire.TableManifest) {
	t.Helper()
	var frames bytes.Buffer
	typ, resp := srv.handleSegmentFetch(&frames, wire.EncodeSegmentFetch(ref, ""))
	if typ != wire.MsgSegmentList {
		t.Fatalf("fetch %q: %s", ref, wire.DecodeError(resp))
	}
	ms, err := wire.DecodeSegmentList(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Ref != ref {
		t.Fatalf("fetch %q ends with %+v, want its one entry", ref, ms)
	}
	var imgs [][]byte
	for frames.Len() > 0 {
		typ, img, err := wire.ReadFrame(&frames)
		if err != nil {
			t.Fatal(err)
		}
		if typ != wire.MsgSegmentData {
			t.Fatalf("fetch %q streams a %v frame", ref, typ)
		}
		imgs = append(imgs, img)
	}
	return imgs, ms[0]
}

// registerShipFixture registers "a" (rows 1–100, then 10 appended rows: a
// WAL tail on a durable daemon) and "e", a range registered empty past them.
func registerShipFixture(t *testing.T, srv *Server) {
	t.Helper()
	if err := srv.RegisterTable("a", imageOf(t, durableFixtureTable(t, 1, 100))); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.EncodeAppend("a", durableFixtureTable(t, 101, 10))
	if err != nil {
		t.Fatal(err)
	}
	if typ, resp := srv.handleAppend(payload); typ != wire.MsgOK {
		t.Fatalf("append: %s", wire.DecodeError(resp))
	}
	if err := srv.RegisterTable("e", imageOf(t, durableFixtureTable(t, 111, 0))); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentListings: the listing is an inventory — refs, rows and
// envelopes — and a fetch streams a table's images and ends with its entry.
// A durable daemon ships its committed segments, then its WAL tail; every
// durable table, a registered empty range included, has at least one
// committed segment. A memory-only daemon ships one table image.
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
			if got := inventoryOf(t, srv); !reflect.DeepEqual(got, want) {
				t.Fatalf("inventory %+v, want %+v", got, want)
			}
			if typ, _ := srv.handleSegmentList([]byte{0}); typ != wire.MsgError {
				t.Fatalf("a segment-list request with a payload answered %v", typ)
			}

			for _, inv := range want {
				imgs, m := fetch(t, srv, inv.Ref)
				if m != inv {
					t.Fatalf("fetch of %q ends with %+v, want %+v", inv.Ref, m, inv)
				}
				wantImgs := 1 // a memory table's image, or the empty range's segment
				if kind == "durable" && inv.Ref == "a" {
					wantImgs = 2 // a committed segment and the wal tail
				}
				if len(imgs) != wantImgs {
					t.Fatalf("%s daemon ships %d images for %q, want %d", kind, len(imgs), inv.Ref, wantImgs)
				}
				tbl, err := store.DecodeImages(imgs)
				if err != nil {
					t.Fatal(err)
				}
				if got := inventory(inv.Ref, tbl); got != inv {
					t.Fatalf("%q's images hold %+v, listed as %+v", inv.Ref, got, inv)
				}
			}
			typ, _ := srv.handleSegmentFetch(&bytes.Buffer{}, wire.EncodeSegmentFetch("missing", ""))
			if typ != wire.MsgError {
				t.Fatalf("fetch of an unknown table answered %v", typ)
			}
		})
	}
}

// TestSegmentListingIsOneCut: a fetch that races appends ships images that
// hold exactly the rows its terminal entry counts. The images are read and
// built after the cut is taken, so they must be the cut's — a durable
// daemon's WAL tail no longer than the counted rows — on memory-only and
// durable daemons alike.
func TestSegmentListingIsOneCut(t *testing.T) {
	for _, kind := range []string{"memory", "durable"} {
		dir := ""
		if kind == "durable" {
			dir = t.TempDir()
		}
		srv, _ := shipServer(t, dir)
		if err := srv.RegisterTable("a", imageOf(t, durableFixtureTable(t, 1, 100))); err != nil {
			t.Fatal(err)
		}
		const batches = 40
		var frames [][]byte
		for i := range batches {
			payload, err := wire.EncodeAppend("a", durableFixtureTable(t, uint64(101+10*i), 10))
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, payload)
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
		fetches := 0
		for last := false; !last; fetches++ {
			select {
			case <-done:
				last = true // one last fetch after every append
			default:
			}
			imgs, m := fetch(t, srv, "a")
			tbl, err := store.DecodeImages(imgs)
			if err != nil {
				t.Fatal(err)
			}
			if got := inventory("a", tbl); got != m {
				t.Fatalf("%s: fetch %d ends with %+v, but its images hold %+v", kind, fetches, m, got)
			}
		}
		if tbl, _ := srv.lookup("a"); tbl.NumRows() != 100+10*batches {
			t.Fatalf("%s: %d rows after the appends, want %d", kind, tbl.NumRows(), 100+10*batches)
		}
	}
}

// TestPullInstallsImages: a pulled table is its source's images. A durable
// daemon commits each, the tail included, as a segment of its own, so it
// ships the source's images byte for byte, with no tail; a memory-only
// daemon serves the same table.
func TestPullInstallsImages(t *testing.T) {
	src, srcAddr := shipServer(t, t.TempDir())
	registerShipFixture(t, src)
	srcTable, err := src.lookup("a")
	if err != nil {
		t.Fatal(err)
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
		if !bytes.Equal(serializeTable(t, got), serializeTable(t, srcTable)) {
			t.Fatalf("%s: pulled table differs from its source", kind)
		}
		if kind == "durable" {
			for _, ref := range []string{"a", "e"} {
				want, _ := fetch(t, src, ref)
				if got, _ := fetch(t, dst, ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("%q: installed segments are not the source's images", ref)
				}
			}
			if got, want := inventoryOf(t, dst), inventoryOf(t, src); !reflect.DeepEqual(got, want) {
				t.Fatalf("installed inventory %+v differs from the source's %+v", got, want)
			}
		}
		if dst.Stats().ReplicaFetchBytes == 0 {
			t.Fatalf("%s: pull counted no fetched bytes", kind)
		}
	}
}

// lyingSource answers every fetch with canned images and a canned entry, as
// a peer daemon would, and is not bound to tell the truth.
func lyingSource(t *testing.T, imgs [][]byte, m wire.TableManifest) string {
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
					if _, _, err := wire.ReadFrame(conn); err != nil {
						return
					}
					for _, img := range imgs {
						if err := wire.WriteFrame(conn, wire.MsgSegmentData, img); err != nil {
							return
						}
					}
					if err := wire.WriteFrame(conn, wire.MsgSegmentList, wire.EncodeSegmentList([]wire.TableManifest{m})); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPullRefusesLyingSource: a peer whose images are not images of one
// table, fail their own CRCs, or do not hold the rows and envelope its entry
// lists is refused with a *PullError naming it and the ref, and nothing is
// installed — a durable daemon then reopens over its directory without the
// table.
func TestPullRefusesLyingSource(t *testing.T) {
	lo := serializeTable(t, durableFixtureTable(t, 1, 10))
	hi := serializeTable(t, durableFixtureTable(t, 11, 10))
	honest := wire.TableManifest{Ref: "x", Rows: 20, StartID: 1, EndID: 20}

	// flipped is hi with one bit of its first column extent flipped: the
	// extent starts at the header's length rounded up to 8 bytes.
	flipped := slices.Clone(hi)
	flipped[(binary.LittleEndian.Uint32(hi[8:])+7)&^7] ^= 1

	cases := map[string]struct {
		imgs [][]byte
		m    wire.TableManifest
		why  string // in the refusal, when the case pins it
	}{
		"rows differ":    {[][]byte{lo, hi}, wire.TableManifest{Ref: "x", Rows: 19, StartID: 1, EndID: 20}, ""},
		"envelope moved": {[][]byte{lo, hi}, wire.TableManifest{Ref: "x", Rows: 20, StartID: 2, EndID: 21}, ""},
		"another table":  {[][]byte{lo, hi}, wire.TableManifest{Ref: "y", Rows: 20, StartID: 1, EndID: 20}, ""},
		"not an image":   {[][]byte{lo, []byte("SBSG, and then not an image at all")}, honest, ""},
		"out of order":   {[][]byte{hi, lo}, honest, ""},
		"flipped byte":   {[][]byte{lo, flipped}, honest, "checksum mismatch"},
	}
	for name, c := range cases {
		for _, kind := range []string{"memory", "durable"} {
			from := lyingSource(t, c.imgs, c.m)
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
			if !strings.Contains(err.Error(), c.why) {
				t.Fatalf("%s, %s: pull refused with %v, want %q", name, kind, err, c.why)
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

	// The honest images and entry install.
	dst, _ := shipServer(t, t.TempDir())
	if err := dst.pullTable("x", lyingSource(t, [][]byte{lo, hi}, honest)); err != nil {
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
