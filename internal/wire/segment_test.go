package wire

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"seabed/internal/engine"
)

func TestSegmentListRoundTrip(t *testing.T) {
	ms := []TableManifest{
		{Ref: "big@NoEnc#r0", Rows: 1000, StartID: 1, EndID: 1000},
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

func TestSegmentFetchRoundTrip(t *testing.T) {
	for _, from := range []string{"", "127.0.0.1:7687"} {
		ref, gotFrom, err := DecodeSegmentFetch(EncodeSegmentFetch("t@Seabed#r1", from))
		if err != nil {
			t.Fatal(err)
		}
		if ref != "t@Seabed#r1" || gotFrom != from {
			t.Fatalf("got %q %q, want %q %q", ref, gotFrom, "t@Seabed#r1", from)
		}
	}
}

// hostileSegmentFrames are payloads each segment-frame decoder must refuse:
// an inventory whose count runs past the payload, a string longer than what
// follows it, and the protocol-14 forms of both frames — a listing entry
// that still carries its pieces, a fetch that still names one — which the
// current layouts leave as trailing bytes.
func hostileSegmentFrames() map[string][]byte {
	v14List := &enc{}
	v14List.uint(1)
	v14List.str("big@NoEnc#r0")
	for _, v := range []uint64{1000, 1, 1000, 1} {
		v14List.uint(v)
	}
	v14List.str("seg-000001.seg")
	v14List.uint(4096)
	v14List.uint(0xdeadbeef)
	v14Fetch := &enc{}
	for _, s := range []string{"t@Seabed#r1", "seg-000002.seg", ""} {
		v14Fetch.str(s)
	}
	return map[string][]byte{
		"count past the payload": {0x05, 0x01, 'x', 0x01, 0x01, 0x01},
		"huge count":             {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"truncated string":       {0x05, 'a', 'b'},
		"v14 listing":            v14List.buf,
		"v14 fetch":              v14Fetch.buf,
	}
}

func TestSegmentFramesRejectHostilePayloads(t *testing.T) {
	cases := []struct {
		name  string
		valid []byte
		run   func(p []byte) error
	}{
		{"list", EncodeSegmentList(nil), func(p []byte) error { _, err := DecodeSegmentList(p); return err }},
		{"fetch", EncodeSegmentFetch("r", ""), func(p []byte) error { _, _, err := DecodeSegmentFetch(p); return err }},
	}
	for _, c := range cases {
		for name, p := range hostileSegmentFrames() {
			if err := c.run(p); err == nil {
				t.Errorf("%s: hostile payload %q decoded without error", c.name, name)
			}
		}
		// Trailing garbage after a valid frame is rejected too.
		if err := c.run(append(c.valid, 0x00)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
}

// FuzzSegmentFrames feeds hostile bytes to the two segment-shipping
// decoders: a daemon decodes inventories a peer sent it, and fetch requests
// from whoever connects. None may panic, and whatever one accepts must
// re-encode to a payload that decodes to an equal value — values, not bytes:
// a varint in the input need not be minimal. The seeds are the round-trip
// cases and hostile payloads above, and their truncations. (A fetched
// image's own decoder, store.DecodeImage, is fuzzed as store.FuzzRead.)
func FuzzSegmentFrames(f *testing.F) {
	seeds := [][]byte{
		EncodeSegmentList([]TableManifest{
			{Ref: "big@NoEnc#r0", Rows: 1000, StartID: 1, EndID: 1000},
			{Ref: "empty@Seabed#r2", Rows: 0, StartID: 1, EndID: 0},
		}),
		EncodeSegmentList(nil),
		EncodeSegmentFetch("t@Seabed#r1", ""),
		EncodeSegmentFetch("t@Seabed#r1", "127.0.0.1:7687"),
	}
	hostile := hostileSegmentFrames()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		seeds = append(seeds, hostile[name])
	}
	for _, p := range seeds {
		f.Add(p)
		for cut := len(p) - 1; cut > 0; cut /= 2 {
			f.Add(p[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		if ms, err := DecodeSegmentList(p); err == nil {
			if again, err := DecodeSegmentList(EncodeSegmentList(ms)); err != nil || !reflect.DeepEqual(again, ms) {
				t.Fatalf("listing %+v re-decodes to %+v, %v", ms, again, err)
			}
		}
		if ref, from, err := DecodeSegmentFetch(p); err == nil {
			r, fr, err := DecodeSegmentFetch(EncodeSegmentFetch(ref, from))
			if err != nil || r != ref || fr != from {
				t.Fatalf("fetch (%q, %q) re-decodes to (%q, %q), %v", ref, from, r, fr, err)
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
