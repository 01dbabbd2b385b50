package wire

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// FuzzDecodePlan feeds hostile bytes to the plan decoder: a daemon decodes
// plan frames from clients the threat model does not trust, so the decoder
// must fail cleanly, never panic, and a plan it accepts must re-encode and
// decode to an equal plan. The seeds are the golden plan frame and its
// truncations, the plans TestPlanRoundTrip round-trips, and (in testdata)
// frames the decoder once accepted but EncodePlan refuses or cannot
// reproduce: an empty table ref, a join without a right-table ref, and a
// sampling probability of NaN.
func FuzzDecodePlan(f *testing.F) {
	golden, err := hex.DecodeString(goldenPlanFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for cut := len(golden) - 1; cut > 0; cut /= 2 {
		f.Add(golden[:cut])
	}
	for _, req := range roundTripPlans() {
		p, err := EncodePlan(req, Version)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := DecodePlan(p)
		if err != nil {
			return
		}
		again, err := EncodePlan(req, Version)
		if err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		back, err := DecodePlan(again)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("plan changed across encode/decode:\n got %+v\nwant %+v", back, req)
		}
	})
}
