package wire

import (
	"bytes"
	"hash/crc32"
	"reflect"
	"testing"

	"seabed/internal/engine"
)

func TestSegmentListRoundTrip(t *testing.T) {
	ms := []TableManifest{
		{
			Ref:     "big@NoEnc#r0",
			Rows:    1000,
			StartID: 1,
			EndID:   1000,
			Segments: []SegmentInfo{
				{Name: "seg-000001.seg", Size: 4096, CRC: 0xdeadbeef},
				{Name: WALSegment, Size: 128, CRC: 7},
			},
		},
		{Ref: "empty@Seabed#r2", Rows: 0, StartID: 1, EndID: 0},
	}
	got, err := DecodeSegmentList(EncodeSegmentList(ms))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ms) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ms)
	}

	// Empty list round-trips to an empty slice.
	got, err = DecodeSegmentList(EncodeSegmentList(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty list decoded to %+v", got)
	}
}

func TestSegmentListReqRoundTrip(t *testing.T) {
	for _, ref := range []string{"", "big@NoEnc#r1"} {
		got, err := DecodeSegmentListReq(EncodeSegmentListReq(ref))
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("got %q want %q", got, ref)
		}
	}
}

func TestSegmentFetchRoundTrip(t *testing.T) {
	ref, name, from, err := DecodeSegmentFetch(EncodeSegmentFetch("t@Seabed#r1", "seg-000002.seg", ""))
	if err != nil {
		t.Fatal(err)
	}
	if ref != "t@Seabed#r1" || name != "seg-000002.seg" || from != "" {
		t.Fatalf("got %q %q %q", ref, name, from)
	}
	ref, name, from, err = DecodeSegmentFetch(EncodeSegmentFetch("t@Seabed#r1", "", "127.0.0.1:7687"))
	if err != nil {
		t.Fatal(err)
	}
	if ref != "t@Seabed#r1" || name != "" || from != "127.0.0.1:7687" {
		t.Fatalf("got %q %q %q", ref, name, from)
	}
}

func TestSegmentDataRoundTripAndCorruption(t *testing.T) {
	data := []byte("SBSG-ish segment bytes 0123456789")
	p := EncodeSegmentData("seg-000001.seg", data)
	sd, err := DecodeSegmentData(p)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Name != "seg-000001.seg" || string(sd.Data) != string(data) {
		t.Fatalf("round trip mismatch: %+v", sd)
	}

	// Flip one payload byte: the decoder must detect it via the CRC.
	bad := append([]byte(nil), p...)
	bad[len(bad)-1] ^= 0x40
	if _, err := DecodeSegmentData(bad); err == nil {
		t.Fatal("corrupted segment data decoded without error")
	}

	// Empty segments are legal and still checksummed.
	sd, err = DecodeSegmentData(EncodeSegmentData(WALSegment, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sd.Name != WALSegment || len(sd.Data) != 0 {
		t.Fatalf("empty round trip mismatch: %+v", sd)
	}
	if crc32.ChecksumIEEE(nil) != 0 {
		t.Fatal("crc32 of empty input is expected to be zero")
	}
}

func TestSegmentFramesRejectHostilePayloads(t *testing.T) {
	cases := []struct {
		name string
		run  func(p []byte) error
	}{
		{"list", func(p []byte) error { _, err := DecodeSegmentList(p); return err }},
		{"list-req", func(p []byte) error { _, err := DecodeSegmentListReq(p); return err }},
		{"fetch", func(p []byte) error { _, _, _, err := DecodeSegmentFetch(p); return err }},
		{"data", func(p []byte) error { _, err := DecodeSegmentData(p); return err }},
	}
	payloads := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge count/length
		{0x05, 'a', 'b'}, // truncated string
		{0x02, 0x01, 'x', 0x00, 0x00, 0x00, 0x00}, // short element list
	}
	for _, c := range cases {
		for i, p := range payloads {
			if err := c.run(p); err == nil {
				t.Errorf("%s: hostile payload %d decoded without error", c.name, i)
			}
		}
		// Trailing garbage after a valid frame is rejected too.
		valid := map[string][]byte{
			"list":     EncodeSegmentList(nil),
			"list-req": EncodeSegmentListReq("r"),
			"fetch":    EncodeSegmentFetch("r", "n", ""),
			"data":     EncodeSegmentData("n", []byte("x")),
		}[c.name]
		if err := c.run(append(valid, 0x00)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
}

// FuzzSegmentFrames feeds hostile bytes to the four segment-shipping
// decoders: a daemon decodes listings and segment data a peer sent it, and
// list and fetch requests from whoever connects. None may panic, and whatever
// one accepts must re-encode to a payload that decodes to an equal value —
// values, not bytes: a varint in the input need not be minimal. The seeds are
// the round-trip cases above and their truncations.
func FuzzSegmentFrames(f *testing.F) {
	seeds := [][]byte{
		EncodeSegmentList([]TableManifest{
			{Ref: "big@NoEnc#r0", Rows: 1000, StartID: 1, EndID: 1000, Segments: []SegmentInfo{
				{Name: "seg-000001.seg", Size: 4096, CRC: 0xdeadbeef},
				{Name: WALSegment, Size: 128, CRC: 7},
			}},
			{Ref: "empty@Seabed#r2", Rows: 0, StartID: 1, EndID: 0},
		}),
		EncodeSegmentList(nil),
		EncodeSegmentListReq(""),
		EncodeSegmentListReq("big@NoEnc#r1"),
		EncodeSegmentFetch("t@Seabed#r1", "seg-000002.seg", ""),
		EncodeSegmentFetch("t@Seabed#r1", "", "127.0.0.1:7687"),
		EncodeSegmentData("seg-000001.seg", []byte("SBSG-ish segment bytes 0123456789")),
		EncodeSegmentData(MemSegment, nil),
	}
	for _, p := range seeds {
		f.Add(p)
		for cut := len(p) - 1; cut > 0; cut /= 2 {
			f.Add(p[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		if ref, err := DecodeSegmentListReq(p); err == nil {
			if again, err := DecodeSegmentListReq(EncodeSegmentListReq(ref)); err != nil || again != ref {
				t.Fatalf("list request %q re-decodes to %q, %v", ref, again, err)
			}
		}
		if ms, err := DecodeSegmentList(p); err == nil {
			if again, err := DecodeSegmentList(EncodeSegmentList(ms)); err != nil || !reflect.DeepEqual(again, ms) {
				t.Fatalf("listing %+v re-decodes to %+v, %v", ms, again, err)
			}
		}
		if ref, name, from, err := DecodeSegmentFetch(p); err == nil {
			r, n, fr, err := DecodeSegmentFetch(EncodeSegmentFetch(ref, name, from))
			if err != nil || r != ref || n != name || fr != from {
				t.Fatalf("fetch (%q, %q, %q) re-decodes to (%q, %q, %q), %v", ref, name, from, r, n, fr, err)
			}
		}
		if sd, err := DecodeSegmentData(p); err == nil {
			again, err := DecodeSegmentData(EncodeSegmentData(sd.Name, sd.Data))
			if err != nil || again.Name != sd.Name || !bytes.Equal(again.Data, sd.Data) {
				t.Fatalf("segment data %q re-decodes to %q, %v", sd.Name, again.Name, err)
			}
		}
	})
}

// TestPlanHedgeFailoverVersionFraming pins that the fleet flags cross the
// plan frame, and that the codecs which still take a version argument accept
// wire.Version and nothing else.
func TestPlanHedgeFailoverVersionFraming(t *testing.T) {
	req := &PlanRequest{
		TableRef: "t",
		Plan:     &engine.Plan{Aggs: []engine.Agg{{Kind: engine.AggCount}}},
		TraceID:  9,
		Hedge:    true,
		Failover: true,
	}
	p, err := EncodePlan(req, Version)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hedge || !got.Failover || got.TraceID != 9 {
		t.Fatalf("flags lost: %+v", got)
	}

	res := opsResult()
	frame, err := EncodeResult("", res, nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := AppendScanChunk(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, Version - 1, Version + 1} {
		if _, err := EncodePlan(req, v); err == nil {
			t.Errorf("EncodePlan accepted version %d", v)
		}
		if _, err := EncodeResult("", res, nil, v); err == nil {
			t.Errorf("EncodeResult accepted version %d", v)
		}
		if _, _, _, err := DecodeResult(frame, v); err == nil {
			t.Errorf("DecodeResult accepted version %d", v)
		}
		if _, err := DecodeScanChunk(chunk, v); err == nil {
			t.Errorf("DecodeScanChunk accepted version %d", v)
		}
	}
}
