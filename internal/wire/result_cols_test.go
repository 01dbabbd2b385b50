package wire

import (
	"bytes"
	"cmp"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/idlist"
	"seabed/internal/paillier"
	"seabed/internal/store"
)

// packRun appends a run of n identifiers of group tag, in a part of groups
// groups, packed by hand as docs/FORMAT.md §3.1 lays it out: a little-endian
// word of ⌈(b + 2) / 8⌉ bytes, b the bits groups − 1 takes, holding the tag
// and above it min(n, 4) − 1, and for n ≥ 4 a uvarint of n − 4.
func packRun(dst []byte, n uint64, tag, groups int) []byte {
	b := bits.Len(uint(groups - 1))
	w := uint64(tag) | (min(n, 4)-1)<<b
	for i := 0; i < (b+9)/8; i++ {
		dst = append(dst, byte(w>>(8*i)))
	}
	if n >= 4 {
		dst = binary.AppendUvarint(dst, n-4)
	}
	return dst
}

// idSection builds a result's identifier section by hand: ids[g] holds group
// g's identifiers; the list holds all of them, ascending, encoded with codec,
// and the runs hand them out in that order (packRun).
func idSection(t testing.TB, codec idlist.Codec, ids [][]uint64) engine.IDPart {
	type tagged struct {
		id uint64
		g  int
	}
	var all []tagged
	for g, l := range ids {
		for _, id := range l {
			all = append(all, tagged{id, g})
		}
	}
	slices.SortStableFunc(all, func(a, b tagged) int { return cmp.Compare(a.id, b.id) })
	var list idlist.List
	for _, x := range all {
		list.Append(x.id)
	}
	enc, err := codec.Encode(list)
	if err != nil {
		t.Fatal(err)
	}
	p := engine.IDPart{Selected: uint64(len(all)), List: enc, Groups: len(ids)}
	if len(ids) > 1 {
		for i := 0; i < len(all); {
			j := i
			for j < len(all) && all[j].g == all[i].g {
				j++
			}
			p.Runs = packRun(p.Runs, uint64(j-i), all[i].g, len(ids))
			i = j
		}
	}
	return p
}

// goldenResult is a fixed two-group result touching every column form the
// result frame carries: 16-byte keys (the encrypted GROUP BY shape, sent
// without offsets), an inflation suffix, an ASHE sum, a count lane, OPE,
// median and Paillier values in side columns, and the identifier section.
func goldenResult(t testing.TB) *engine.Result {
	return &engine.Result{
		Cols: &engine.GroupCols{
			KeyKind:  store.Bytes,
			KeyOff:   []uint64{0, 16, 32},
			KeyArena: []byte("0123456789abcdeffedcba9876543210"),
			Suffix:   []int32{-1, 2},
			Rows:     []uint64{10, 1},
			Aggs: []engine.AggCol{
				{Kind: engine.AggAsheSum, Lane: []uint64{0xfeedfacecafebeef, 7}},
				{Kind: engine.AggCount, Lane: []uint64{10, 1}},
				{Kind: engine.AggOpeMin, Vals: []engine.AggValue{
					{Kind: engine.AggOpeMin, Ope: []byte{9, 8, 7}, ArgID: 31, U64: 5, CompanionBytes: []byte{1, 2}},
					{Kind: engine.AggOpeMin}}},
				{Kind: engine.AggPlainMedian, Vals: []engine.AggValue{
					{Kind: engine.AggPlainMedian, MedU64: []uint64{4, 300, 2}},
					{Kind: engine.AggPlainMedian}}},
				{Kind: engine.AggOpeMedian, Vals: []engine.AggValue{
					{Kind: engine.AggOpeMedian, MedOpe: [][]byte{{1}, {2, 2}}, MedIDs: []uint64{5, 6}, MedComp: []uint64{50, 60}},
					{Kind: engine.AggOpeMedian}}},
				{Kind: engine.AggPaillierSum, Vals: []engine.AggValue{
					{Kind: engine.AggPaillierSum, Pail: new(big.Int).Lsh(big.NewInt(99), 70)},
					{Kind: engine.AggPaillierSum, Pail: big.NewInt(1)}}},
			},
			IDs:   []engine.IDPart{idSection(t, idlist.VBDiff, [][]uint64{{3, 4, 5, 6, 7, 8, 9, 12, 40, 41}, {77}})},
			Codec: idlist.VBDiff,
		},
		Metrics: engine.Metrics{
			ShuffleBytes: 1234, ResultBytes: 567,
			MapTasks: 8, ReduceTasks: 3, RowsScanned: 1000, RowsSelected: 15,
			Ops: engine.OpStats{Batches: 8, GroupHash: 15, GroupSlots: 3, GroupTableLen: 1024, ColumnPins: 16},
		},
	}
}

// goldenFrame is what EncodeResult(idlist.VBDiff.Name(), goldenResult, nil,
// Version) emits at v16, which dropped the scan section's count and the seven
// stage-time varints from the metrics; the codec name, the group section and
// the identifier section are as captured at v14, which moved the ASHE sums'
// identifiers out of the aggregate columns into one identifier section after
// them (everything before it as at v10). Read against encodeGroupCols, the
// section after the codec name ("vb+diff") is:
//
//	02 01 01 11 06 | 03 02 07 09 0a 04    2 groups, Bytes keys, inflated, keyLen
//	                                      16 (+1), 6 aggregates and their kinds
//	zero padding to offset 24
//	rows      2 words: 10, 1
//	suffix    2 words: −1, 2
//	keys      32 raw bytes, no offsets
//	agg 0     body lane (2 words)
//	agg 1     count lane: 10, 1
//	agg 2–5   one side column each: per group the value's fields as varints,
//	          padded to the next boundary
//	ids       01 | 0b | 0c 0b 06 02 … 48 | 03 06 06 01
//	          one part; 11 identifiers selected; the 12-byte vb+diff list of
//	          3–9, 12, 40, 41, 77; 3 bytes of runs, one-byte words of a 1-bit
//	          tag and a 2-bit length code: 10 identifiers of group 0 (word 06,
//	          code 3: uvarint 10 − 4 follows), then 1 of group 1 (word 01)
//
// then the metrics (a413 ee08 10 06 e807 0f: the byte, task and row counts;
// 00: no first chunk; the operator counters, in encodeMetrics order) and the
// span count.
const goldenFrame = "0776622b646966660201011106030207090a0400000000000a000000000000000100000000000000ffffffffffffffff0200" +
	"0000000000003031323334353637383961626364656666656463626139383736353433323130efbefecacefaedfe07000000" +
	"000000000a0000000000000001000000000000000500030908071f0201020000000000000000000000000000000000000003" +
	"04ac0202000000000000000000000000000000000000000002010102020202050602323c0000000000000000000000000000" +
	"00010a18c00000000000000000000000000000000001010100000000000000010b0c0b060202020202020638024803060601" +
	"a413ee081006e8070f0008000000000f00038008100000"

// TestEncodeResultGolden pins the result frame's bytes, that the columnar
// decoder reads them back to the same groups, and that an identifier list
// crosses the wire once.
func TestEncodeResultGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenFrame)
	if err != nil {
		t.Fatal(err)
	}
	res := goldenResult(t)
	got, err := EncodeResult(idlist.VBDiff.Name(), res, nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result frame bytes changed:\n got %x\nwant %x", got, want)
	}
	codec, back, _, err := DecodeResult(want, Version)
	if err != nil {
		t.Fatal(err)
	}
	if codec != idlist.VBDiff.Name() || !reflect.DeepEqual(back.View(), res.View()) || !reflect.DeepEqual(back.Metrics, res.Metrics) {
		t.Fatalf("golden frame decoded to\n %+v\nwant\n %+v", back.View(), res.View())
	}
	if l := res.Cols.IDs[0].List; bytes.Count(want, l) != 1 {
		t.Fatalf("the encoded identifier list %x appears %d times in the frame, want once", l, bytes.Count(want, l))
	}
}

// propKeys are the key columns the round-trip property covers.
var propKeys = []struct {
	name string
	kind store.Kind
}{{"u64", store.U64}, {"det16", store.Bytes}, {"string", store.Str}}

// propMixes are the aggregate mixes the round-trip property covers; the
// generic kinds need a Partial plan's uncollapsed medians and a Paillier key.
func propMixes(pk *paillier.PublicKey) map[string][]engine.Agg {
	lanes := []engine.Agg{{Kind: engine.AggCount}, {Kind: engine.AggPlainSum}, {Kind: engine.AggPlainMin}, {Kind: engine.AggPlainMax}}
	generic := []engine.Agg{{Kind: engine.AggPaillierSum, PK: pk}, {Kind: engine.AggOpeMin}, {Kind: engine.AggOpeMax},
		{Kind: engine.AggPlainMedian}, {Kind: engine.AggOpeMedian}}
	return map[string][]engine.Agg{
		"lanes":   lanes,
		"ashe":    {{Kind: engine.AggAsheSum}, {Kind: engine.AggCount}},
		"generic": generic,
		"mixed":   append(append([]engine.Agg{{Kind: engine.AggAsheSum}}, generic...), lanes...),
	}
}

// propResult builds shard `shard`'s hand-made result of n groups: keys of the
// given kind (string keys of varying length, so they travel with offsets),
// optional inflation suffixes, values for every aggregate of the mix that
// depend on group and shard, and with an ASHE sum the identifier section that
// gives group i identifiers 1000·shard + 3i + 1 and + 3.
func propResult(t testing.TB, kind store.Kind, inflated bool, aggs []engine.Agg, n, shard int) *engine.Result {
	res := &engine.Result{Metrics: engine.Metrics{MapTasks: 1 + shard, RowsScanned: uint64(n)}}
	if n == 0 {
		return res
	}
	c := &engine.GroupCols{KeyKind: kind, Rows: make([]uint64, n), Aggs: make([]engine.AggCol, len(aggs)), Codec: idlist.VBDiff}
	if kind != store.U64 {
		c.KeyOff = make([]uint64, 1, n+1)
	}
	if inflated {
		c.Suffix = make([]int32, n)
	}
	var ids [][]uint64
	for ai, a := range aggs {
		c.Aggs[ai].Kind = a.Kind
		if a.Kind == engine.AggAsheSum && ids == nil {
			ids = make([][]uint64, n)
		}
	}
	for i := 0; i < n; i++ {
		switch kind {
		case store.U64:
			c.KeyU64 = append(c.KeyU64, uint64(i)*2654435761)
		case store.Bytes:
			c.KeyArena = fmt.Appendf(c.KeyArena, "det-key-%08d", i)
		default:
			c.KeyArena = fmt.Appendf(c.KeyArena, "k%d", i*i)
		}
		if kind != store.U64 {
			c.KeyOff = append(c.KeyOff, uint64(len(c.KeyArena)))
		}
		if inflated {
			c.Suffix[i] = int32(i % 3)
		}
		c.Rows[i] = uint64(1 + i%3)
		v := uint64(i)*7919 + uint64(shard)
		for ai := range c.Aggs {
			col := &c.Aggs[ai]
			av := engine.AggValue{Kind: col.Kind}
			switch col.Kind {
			case engine.AggAsheSum:
				ids[i] = []uint64{uint64(1000*shard + 3*i + 1), uint64(1000*shard + 3*i + 3)}
				col.Lane = append(col.Lane, v)
				continue
			case engine.AggPaillierSum:
				av.Pail = new(big.Int).SetUint64(v + 2)
			case engine.AggOpeMin, engine.AggOpeMax:
				av.Ope, av.ArgID, av.U64 = []byte{byte(i), byte(shard), 1}, v+1, v
				if i%2 == 0 {
					av.CompanionBytes = []byte{byte(i)}
				}
			case engine.AggPlainMedian:
				av.MedU64 = []uint64{v, v + 1, uint64(shard)}
			case engine.AggOpeMedian:
				av.MedOpe, av.MedIDs, av.MedComp = [][]byte{{byte(i)}, {byte(shard), 2}}, []uint64{v, v + 1}, []uint64{5, 6}
			default:
				col.Lane = append(col.Lane, v)
				continue
			}
			col.Vals = append(col.Vals, av)
		}
	}
	if ids != nil {
		c.IDs = []engine.IDPart{idSection(t, idlist.VBDiff, ids)}
	}
	res.Cols = c
	return res
}

// sameGroups is reflect.DeepEqual for two row views, field by field: the
// property below compares 16k-group views of ten 240-byte values each, which
// reflection walks a hundred times slower.
func sameGroups(a, b []engine.Group) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		g, h := &a[i], &b[i]
		if g.KeyKind != h.KeyKind || g.KeyU64 != h.KeyU64 || !bytes.Equal(g.KeyBytes, h.KeyBytes) || g.KeyStr != h.KeyStr ||
			g.Suffix != h.Suffix || g.Rows != h.Rows || len(g.Aggs) != len(h.Aggs) {
			return false
		}
		for j := range g.Aggs {
			x, y := &g.Aggs[j], &h.Aggs[j]
			if x.Kind != y.Kind || x.U64 != y.U64 || x.Ashe.Body != y.Ashe.Body ||
				!bytes.Equal(x.Ashe.Encoded, y.Ashe.Encoded) || (x.Pail == nil) != (y.Pail == nil) || x.Pail != nil && x.Pail.Cmp(y.Pail) != 0 ||
				!bytes.Equal(x.Ope, y.Ope) || x.ArgID != y.ArgID || !bytes.Equal(x.CompanionBytes, y.CompanionBytes) ||
				!slices.Equal(x.MedU64, y.MedU64) || !slices.EqualFunc(x.MedOpe, y.MedOpe, bytes.Equal) ||
				!slices.Equal(x.MedIDs, y.MedIDs) || !slices.Equal(x.MedComp, y.MedComp) {
				return false
			}
		}
	}
	return true
}

// TestResultRoundTripProperty is the frame's round-trip property over key
// kind × inflation × aggregate mix × group count: a decoded frame views as
// the groups that were encoded, and two shards' decoded frames merge to what
// the shards' own results merge to.
func TestResultRoundTripProperty(t *testing.T) {
	sk, err := paillier.GenerateKey(crand.Reader, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range propKeys {
		for _, inflated := range []bool{false, true} {
			for mix, aggs := range propMixes(&sk.PublicKey) {
				for _, n := range []int{0, 1, 1 << 14} {
					name := fmt.Sprintf("%s/inflated=%v/%s/%d", key.name, inflated, mix, n)
					t.Run(name, func(t *testing.T) {
						pl := &engine.Plan{Aggs: aggs, GroupBy: &engine.GroupBy{Col: "k"}, Partial: true, Codec: idlist.VBDiff}
						var shards, decoded []*engine.Result
						for shard := 0; shard < 2; shard++ {
							res := propResult(t, key.kind, inflated, aggs, n, shard)
							p, err := EncodeResult(idlist.VBDiff.Name(), res, nil, Version)
							if err != nil {
								t.Fatal(err)
							}
							codec, back, _, err := DecodeResult(p, Version)
							if err != nil {
								t.Fatal(err)
							}
							if codec != idlist.VBDiff.Name() || !reflect.DeepEqual(back.Metrics, res.Metrics) {
								t.Fatalf("codec %q, metrics %+v; want %q, %+v", codec, back.Metrics, idlist.VBDiff.Name(), res.Metrics)
							}
							if back.Groups != nil {
								t.Fatal("decode built the row view nobody asked for")
							}
							if !sameGroups(back.View(), res.View()) {
								t.Fatal("decoded frame does not view as the groups encoded")
							}
							// The frame is canonical: what decodes re-encodes to it.
							again, err := EncodeResult(codec, back, nil, Version)
							if err != nil || !bytes.Equal(again, p) {
								t.Fatalf("decoded result re-encodes differently (err %v)", err)
							}
							shards, decoded = append(shards, res), append(decoded, back)
						}
						want, err := engine.MergeResults(pl, shards)
						if err != nil {
							t.Fatal(err)
						}
						got, err := engine.MergeResults(pl, decoded)
						if err != nil {
							t.Fatal(err)
						}
						if len(want.Groups) != n || !sameGroups(got.Groups, want.Groups) {
							t.Fatalf("decoded frames merge to %d groups that differ from the %d the shards' results merge to", len(got.Groups), len(want.Groups))
						}
					})
				}
			}
		}
	}
}

// TestEncodeResultRefusesMergedSections: a merged result's identifier section
// is one part per shard, each with its tags mapped to the merged groups. Only
// a run's result crosses the wire — the proxy decrypts a merged one where it
// was merged — so EncodeResult refuses it, as it refuses a part tagging
// another group count than the frame's.
func TestEncodeResultRefusesMergedSections(t *testing.T) {
	pl := &engine.Plan{Aggs: []engine.Agg{{Kind: engine.AggCount}, {Kind: engine.AggAsheSum, Col: "v"}},
		GroupBy: &engine.GroupBy{Col: "k"}, Partial: true, Codec: idlist.VBDiff}
	shards := []*engine.Result{
		propResult(t, store.U64, false, pl.Aggs, 8, 0),
		propResult(t, store.U64, false, pl.Aggs, 5, 1),
	}
	for _, s := range shards {
		if _, err := EncodeResult(idlist.VBDiff.Name(), s, nil, Version); err != nil {
			t.Fatalf("a run's result: %v", err)
		}
	}
	merged, err := engine.Merge(pl, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Cols.IDs) != 2 || merged.Cols.IDs[1].Remap == nil {
		t.Fatalf("the merged section holds %d parts, want 2 remapped ones", len(merged.Cols.IDs))
	}
	if _, err := EncodeResult(idlist.VBDiff.Name(), merged, nil, Version); err == nil {
		t.Error("a merged result framed")
	}
	wrong := *shards[0]
	cols := *wrong.Cols
	cols.IDs = []engine.IDPart{cols.IDs[0]}
	cols.IDs[0].Groups++
	wrong.Cols = &cols
	if _, err := EncodeResult(idlist.VBDiff.Name(), &wrong, nil, Version); err == nil {
		t.Error("a part tagging more groups than the frame holds framed")
	}
}

// wideFrame encodes a result of n byte-keyed ASHE-sum groups: one daemon's
// share of a wide encrypted GROUP BY.
func wideFrame(t testing.TB, n int) ([]byte, *engine.Result) {
	res := propResult(t, store.Bytes, false, []engine.Agg{{Kind: engine.AggAsheSum}}, n, 0)
	p, err := EncodeResult(idlist.VBDiff.Name(), res, nil, Version)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestDecodeResultAllocsPerGroup pins the columnar decode: a 16k-group frame
// decodes in a constant handful of allocations — the lanes, the key arena and
// the identifier section are the frame itself.
func TestDecodeResultAllocsPerGroup(t *testing.T) {
	const groups = 1 << 14
	p, want := wideFrame(t, groups)
	_, got, _, err := DecodeResult(p, Version)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.View(), want.View()) {
		t.Fatal("wide frame did not round-trip")
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, _, _, err := DecodeResult(p, Version); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 24 {
		t.Fatalf("DecodeResult of a %d-group frame makes %.0f allocations, want at most 24", groups, avg)
	}
}

// TestDecodeResultAliasesOrCopies pins the decode contract on both sides of
// the alignment check: an 8-byte-aligned payload is aliased (the body lane is
// the frame's own bytes), a misaligned one is copied, and both decode to the
// same groups.
func TestDecodeResultAliasesOrCopies(t *testing.T) {
	p, want := wideFrame(t, 64)
	shifted := append(make([]byte, 1, len(p)+1), p...)[1:] // same bytes, odd address
	for name, payload := range map[string][]byte{"aligned": p, "shifted": shifted} {
		_, got, _, err := DecodeResult(payload, Version)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.View(), want.View()) {
			t.Fatalf("%s payload did not round-trip", name)
		}
		lane := got.Cols.Aggs[0].Lane
		before := lane[0]
		for i := range payload {
			payload[i] ^= 0xff
		}
		if aliased := lane[0] != before; aliased != (name == "aligned") {
			t.Fatalf("%s payload: body lane aliases the frame = %v", name, aliased)
		}
	}
}

// shortMedianResult is a result a hostile daemon can frame and the decoder
// accepts: an OPE median whose collection holds three ciphertexts and one
// identifier — in an ungrouped result's one group, or in the second of two
// groups.
func shortMedianResult(grouped bool) *engine.Result {
	short := engine.AggValue{Kind: engine.AggOpeMedian, MedIDs: []uint64{7},
		MedOpe: [][]byte{[]byte("ope-ciphertext-3"), []byte("ope-ciphertext-1"), []byte("ope-ciphertext-2")}}
	if !grouped {
		return &engine.Result{Cols: &engine.GroupCols{KeyKind: store.U64, KeyU64: []uint64{0}, Rows: []uint64{3},
			Aggs: []engine.AggCol{{Kind: engine.AggOpeMedian, Vals: []engine.AggValue{short}}}}}
	}
	honest := engine.AggValue{Kind: engine.AggOpeMedian, MedIDs: []uint64{4}, MedOpe: [][]byte{[]byte("ope-ciphertext-4")}}
	return &engine.Result{Cols: &engine.GroupCols{KeyKind: store.U64, KeyU64: []uint64{4, 5}, Rows: []uint64{1, 3},
		Aggs: []engine.AggCol{{Kind: engine.AggOpeMedian, Vals: []engine.AggValue{honest, short}}}}}
}

// shortMedianSeed is the checked-in fuzz seed holding shortMedianResult's
// ungrouped frame.
const shortMedianSeed = "testdata/fuzz/FuzzDecodeResult/hostile-ope-median-identifiers-short-of-ciphertexts"

// TestShortMedianFrameIsAnError: the frame decodes — every length in it is
// consistent — but its median collection cannot be collapsed, so merging it is
// an error naming the aggregate and the group, not a proxy panic. The fuzz
// seed is that ungrouped frame, byte for byte.
func TestShortMedianFrameIsAnError(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		p, err := EncodeResult(idlist.VBDiff.Name(), shortMedianResult(grouped), nil, Version)
		if err != nil {
			t.Fatal(err)
		}
		if !grouped {
			seed, err := os.ReadFile(shortMedianSeed)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p); string(seed) != want {
				t.Fatalf("%s is not the short-median frame; rewrite it as\n%s", shortMedianSeed, want)
			}
		}
		codec, res, _, err := DecodeResult(p, Version)
		if err != nil {
			t.Fatalf("grouped=%v: the frame does not decode: %v", grouped, err)
		}
		_, err = engine.Merge(mergePlan(codec, res.Cols, nil), []*engine.Result{res})
		want := fmt.Sprintf("aggregate 0 (ope_median) of group %d collects 3 ciphertexts with 1 identifiers", map[bool]int{false: 0, true: 1}[grouped])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("grouped=%v: merging the frame: %v, want an error containing %q", grouped, err, want)
		}
	}
}

// mergePlan is the plan a coordinator would merge a decoded result under,
// built from the frame alone: its codec and its columns' aggregate kinds, with
// pk for Paillier sums. Nil when the codec is one the proxy does not know.
func mergePlan(codec string, c *engine.GroupCols, pk *paillier.PublicKey) *engine.Plan {
	ic, err := CodecByName(codec)
	if err != nil {
		return nil
	}
	pl := &engine.Plan{Codec: ic, Aggs: make([]engine.Agg, len(c.Aggs))}
	for i := range c.Aggs {
		pl.Aggs[i] = engine.Agg{Kind: c.Aggs[i].Kind, PK: pk}
	}
	return pl
}

// FuzzDecodeResult feeds hostile bytes to the result decoder: the proxy
// decodes results from a server the threat model does not trust, so the
// decoder must fail cleanly — never panic or over-reserve — and whatever it
// accepts must hold one word per group in every lane (what client.Decrypt
// indexes) and an identifier section whose runs are checked, merge — with
// itself, as two shards — into a result or an error, never a panic, view
// without panicking, and survive a re-encode and second decode unchanged. The
// seed corpus is the valid frames above, truncations of the golden frame, the
// hostile frames the unit tests reject and the section frames that decode
// (sectionFrames), and (in testdata) the same, a frame that decodes but cannot
// merge and one with a scan row in the scan section the result frame held up
// to v15, which the decoder refuses (rowMajorFrame).
func FuzzDecodeResult(f *testing.F) {
	golden, err := hex.DecodeString(goldenFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for cut := len(golden) - 1; cut > 0; cut /= 2 {
		f.Add(golden[:cut])
	}
	wide, _ := wideFrame(f, 40)
	f.Add(wide)
	ops, err := EncodeResult(idlist.Default.Name(), opsResult(), nil, Version)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ops)
	for _, h := range hostileResultFrames(f) {
		f.Add(h.frame)
	}
	for _, h := range sectionFrames(f) {
		f.Add(h.frame)
	}
	sk, err := paillier.GenerateKey(crand.Reader, 128)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		codec, res, _, err := DecodeResult(p, Version)
		if err != nil {
			return
		}
		if c := res.Cols; c != nil {
			n := c.Len()
			keyed := c.KeyKind != store.U64
			if n == 0 || keyed && len(c.KeyOff) != n+1 || !keyed && len(c.KeyU64) != n || c.Suffix != nil && len(c.Suffix) != n {
				t.Fatalf("decoded key columns do not hold %d groups", n)
			}
			for i := range c.Aggs {
				col := &c.Aggs[i]
				if col.Lane != nil && len(col.Lane) != n || col.Lane == nil && len(col.Vals) != n ||
					col.Kind == engine.AggAsheSum && len(c.IDs) == 0 {
					t.Fatalf("decoded aggregate column %d does not hold %d groups", i, n)
				}
			}
			for i := range c.IDs {
				var scratch []idlist.Run // a decoded part's runs are kept: Tags decodes none
				p := &c.IDs[i]
				if _, err := p.Tags(&scratch); p.Groups != n || p.Remap != nil || err != nil || len(scratch) > 0 {
					t.Fatalf("decoded identifier section part %d is not %d groups' runs, checked and decoded", i, n)
				}
			}
			if pl := mergePlan(codec, c, &sk.PublicKey); pl != nil {
				_, _ = engine.Merge(pl, []*engine.Result{res, res}) // a result or an error; a panic fails the fuzz
			}
		}
		view := canonPail(res.View())
		again, err := EncodeResult(codec, res, nil, Version)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		codec2, res2, _, err := DecodeResult(again, Version)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if codec2 != codec || !reflect.DeepEqual(canonPail(res2.View()), view) || !reflect.DeepEqual(res2.Scan, res.Scan) || !reflect.DeepEqual(res2.Metrics, res.Metrics) {
			t.Fatalf("result changed across encode/decode:\n got %+v\nwant %+v", res2, res)
		}
	})
}

// canonPail rewrites a view's Paillier sums, in place, to the form their
// minimal encoding decodes to: big.Int's zero has a nil and an empty magnitude,
// which reflect.DeepEqual tells apart and a re-encode (rightly) does not keep.
func canonPail(groups []engine.Group) []engine.Group {
	for _, g := range groups {
		for i := range g.Aggs {
			if p := g.Aggs[i].Pail; p != nil {
				g.Aggs[i].Pail = new(big.Int).SetBytes(p.Bytes())
			}
		}
	}
	return groups
}

// hostileFrame is one frame a hostile or broken daemon could send, with the
// decoder check that must reject it.
type hostileFrame struct {
	name  string
	frame []byte
}

// hostileResultFrames builds result frames that must fail the decode with an
// error: hostile counts in each section, and a well-formed 4-group ASHE frame
// broken one way at a time.
func hostileResultFrames(t testing.TB) []hostileFrame {
	var out []hostileFrame
	add := func(name string, build func(e *enc)) {
		e := &enc{}
		e.str("")
		build(e)
		out = append(out, hostileFrame{name, e.buf})
	}
	add("span count larger than the payload", func(e *enc) {
		e.uint(0) // no groups
		encodeMetrics(e, &engine.Metrics{})
		e.uint(1 << 62)
	})
	add("group count larger than the payload could hold", func(e *enc) { e.uint(1 << 62) })
	add("aggregate count larger than the payload", func(e *enc) {
		e.uint(1) // one group
		e.uint(0) // u64 keys
		e.bool(false)
		e.uint(1 << 62)
	})
	add("unknown aggregate kind", func(e *enc) {
		e.uint(1)
		e.uint(0)
		e.bool(false)
		e.uint(1)
		e.uint(uint64(engine.AggOpeMedian) + 1)
		e.lane([]uint64{1}) // rows
		e.lane([]uint64{7}) // keys
		e.lane([]uint64{3}) // the unknown aggregate's would-be lane
	})
	add("unknown key kind", func(e *enc) {
		e.uint(1)
		e.uint(3)
		e.bool(false)
		e.uint(0) // keyLen: offsets
		e.uint(0) // no aggregates
		e.lane([]uint64{1})
		e.blob([]uint64{0, 1}, []byte{'k'})
	})
	add("fixed key length times group count exceeds the payload", func(e *enc) {
		e.uint(2)
		e.uint(uint64(store.Bytes))
		e.bool(false)
		e.uint(1 << 40) // keyLen+1
		e.uint(0)       // no aggregates
		e.lane([]uint64{1, 1})
	})
	add("metrics cut short", func(e *enc) {
		e.uint(0)                   // no groups
		e.buf = append(e.buf, 0x80) // the first metric's varint, cut
	})
	add("group key offsets out of order", func(e *enc) {
		e.uint(3)
		e.uint(uint64(store.Bytes))
		e.bool(false)
		e.uint(0) // keyLen: offsets
		e.uint(0) // no aggregates
		e.lane([]uint64{1, 1, 1})
		e.blob([]uint64{0, 2, 1, 3}, []byte("abc"))
	})
	add("aggregate value count larger than the payload", func(e *enc) {
		e.uint(4)
		e.uint(0)
		e.bool(false)
		e.uint(1)
		e.uint(uint64(engine.AggPaillierSum)) // values, not a lane
		e.lane([]uint64{1, 1, 1, 1})          // rows
		e.lane([]uint64{7, 8, 9, 10})         // keys; no value follows
	})
	add("suffix outside int32", func(e *enc) {
		e.uint(1)
		e.uint(0)
		e.bool(true)
		e.uint(0)
		e.lane([]uint64{1})
		e.lane([]uint64{1 << 40})
		e.lane([]uint64{7})
	})

	// The valid frame the next cases break: 4 groups, 16-byte keys, one ASHE
	// sum. After the codec name and six header bytes its extents sit at fixed
	// offsets: rows (4 words) at 16, keys (64 bytes) at 48, the body lane at
	// 112; the identifier section follows the lane, its list 4 bytes in.
	valid, _ := wideFrame(t, 4)
	const rowsAt, laneAt, sectionAt = 16, 112, 144
	if binary.LittleEndian.Uint64(valid[rowsAt:]) != 1 || valid[sectionAt] != 1 || valid[sectionAt+1] != 8 {
		t.Fatalf("the 4-group frame's layout moved; re-derive the hostile offsets")
	}
	mutate := func(name string, edit func(p []byte) []byte) {
		out = append(out, hostileFrame{name, edit(bytes.Clone(valid))})
	}
	mutate("lane shorter than the group count (a word removed)", func(p []byte) []byte {
		return append(p[:laneAt], p[laneAt+8:]...)
	})
	mutate("lane longer than the group count (a word inserted)", func(p []byte) []byte {
		return append(p[:laneAt], append(make([]byte, 8), p[laneAt:]...)...)
	})
	mutate("extent cut mid-word", func(p []byte) []byte { return p[:laneAt+13] })
	mutate("list cut short", func(p []byte) []byte { return p[:sectionAt+5] })
	mutate("non-zero padding before an extent", func(p []byte) []byte {
		p[rowsAt-1] = 1
		return p
	})
	mutate("trailing byte after the frame", func(p []byte) []byte { return append(p, 0) })

	// Sections of a 3-group frame (tags take two bits, so tag 3 is written
	// and refused) over identifiers 1..3: each breaks the part one way.
	section := func(name string, aggs []engine.AggKind, write func(e *enc)) {
		out = append(out, hostileFrame{name, sectionFrame(aggs, write)})
	}
	asheSum := []engine.AggKind{engine.AggAsheSum}
	list := []byte{3, 2, 2, 2} // vb+diff: identifiers 1, 2, 3
	runs := func(e *enc, selected uint64, runs ...[2]uint64) {
		e.uint(1) // one part
		e.uint(selected)
		e.bytes(list)
		var b []byte
		for _, r := range runs { // length, tag
			b = packRun(b, r[0], int(r[1]), 3)
		}
		e.bytes(b)
	}
	section("run tag at or above the group count", asheSum, func(e *enc) { runs(e, 3, [2]uint64{2, 0}, [2]uint64{1, 3}) })
	section("runs summing past the selected count", asheSum, func(e *enc) { runs(e, 3, [2]uint64{2, 0}, [2]uint64{2, 1}) })
	section("runs short of the selected count", asheSum, func(e *enc) { runs(e, 3, [2]uint64{1, 0}, [2]uint64{1, 1}) })
	section("run cut short", asheSum, func(e *enc) {
		e.uint(1)
		e.uint(3)
		e.bytes(list)
		e.bytes([]byte{1 | 3<<2, 0x80}) // a long run's word, its length's uvarint cut
	})
	section("no identifier section for an ASHE sum", asheSum, func(e *enc) { e.uint(0) })
	section("identifier section without an ASHE sum", []engine.AggKind{engine.AggCount}, func(e *enc) { runs(e, 3, [2]uint64{3, 0}) })
	section("section part count larger than the payload", asheSum, func(e *enc) { e.uint(1 << 40) })
	section("identifier runs longer than the payload", asheSum, func(e *enc) {
		e.uint(1)
		e.uint(3)
		e.bytes(list)
		e.uint(1 << 40) // the runs' byte length
	})
	out = append(out, hostileFrame{"run longer than a Run holds", sectionFrameOf(idlist.Default, 3, asheSum, func(e *enc) {
		e.uint(1) // 2^64−1 identifiers in two runs
		e.uint(1<<64 - 1)
		e.bytes(everyList(t))
		e.bytes(packRun(packRun(nil, 1<<63, 0, 3), 1<<63-1, 2, 3))
	})})
	section("list longer than the payload", asheSum, func(e *enc) {
		e.uint(1)
		e.uint(3)
		e.uint(1 << 40)
	})
	return out
}

// sectionFrame is a result frame of three U64-keyed groups, one row each, its
// lists in vb+diff, with one aggregate of each kind given — a lane apiece —
// whose identifier section write writes.
func sectionFrame(aggs []engine.AggKind, write func(e *enc)) []byte {
	return sectionFrameOf(idlist.VBDiff, 3, aggs, write)
}

// sectionFrameOf is sectionFrame with the codec and group count given: group g
// has key 7+g and an aggregate body of 5+g.
func sectionFrameOf(codec idlist.Codec, groups int, aggs []engine.AggKind, write func(e *enc)) []byte {
	e := &enc{}
	e.str(codec.Name())
	e.uint(uint64(groups))
	e.uint(uint64(store.U64))
	e.bool(false)
	e.uint(uint64(len(aggs)))
	for _, k := range aggs {
		e.uint(uint64(k))
	}
	rows, keys, bodies := make([]uint64, groups), make([]uint64, groups), make([]uint64, groups)
	for g := range groups {
		rows[g], keys[g], bodies[g] = 1, 7+uint64(g), 5+uint64(g)
	}
	e.lane(rows)
	e.lane(keys)
	for range aggs {
		e.lane(bodies)
	}
	write(e)
	encodeMetrics(e, &engine.Metrics{})
	e.uint(0) // no spans
	return e.buf
}

// sectionFrames are section frames the decoder accepts and the client refuses
// or reads with care: a list holding the reserved identifier 0, a list whose
// identifiers descend, which no daemon writes and no sweep can read, and a
// part of one group selecting every identifier but 0 — one range, 2^64−1
// identifiers — which decodes to no runs at all.
func sectionFrames(t testing.TB) []hostileFrame {
	asheSum := []engine.AggKind{engine.AggAsheSum}
	part := func(ids ...uint64) func(e *enc) {
		return func(e *enc) {
			var l []byte
			l = binary.AppendUvarint(l, uint64(len(ids)))
			prev := uint64(0)
			for _, id := range ids {
				l = binary.AppendVarint(l, int64(id-prev))
				prev = id
			}
			e.uint(1)
			e.uint(uint64(len(ids)))
			e.bytes(l)
			e.bytes([]byte{0, 1, 2}) // one identifier to each group: words 0, 1, 2
		}
	}
	every := func(e *enc) { // a one-group part of 2^64−1 identifiers
		e.uint(1)
		e.uint(1<<64 - 1)
		e.bytes(everyList(t))
	}
	return []hostileFrame{
		{"selected list holding identifier 0", sectionFrame(asheSum, part(0, 1, 2))},
		{"non-ascending selected list", sectionFrame(asheSum, part(9, 4, 6))},
		{"every identifier selected in one group", sectionFrameOf(idlist.Default, 1, asheSum, every)},
	}
}

// everyList is the default codec's list of every identifier but 0.
func everyList(t testing.TB) []byte {
	l, err := idlist.Default.Encode(idlist.FromRange(1, 1<<64-1))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestDecodeResultRejectsHostileFrames runs the fuzz seeds' hostile frames as
// a plain test: each must fail the decode with an error.
func TestDecodeResultRejectsHostileFrames(t *testing.T) {
	for _, h := range hostileResultFrames(t) {
		if _, _, _, err := DecodeResult(h.frame, Version); err == nil {
			t.Errorf("hostile frame accepted: %s", h.name)
		}
	}
}

// TestDecodeResultRefusesHostileRuns: every checked-in seed whose identifier
// section's runs lie — a tag past the groups, runs past or short of the
// selected count, a run cut short or longer than a Run holds — is refused by
// DecodeResult itself, by its run check, so that no merge or client ever
// holds such a part.
func TestDecodeResultRefusesHostileRuns(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzDecodeResult/hostile-run*")
	if err != nil || len(paths) != 5 {
		t.Fatalf("%d run seeds (%v), want 5", len(paths), err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte("), ")")
		frame, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, _, _, err := DecodeResult([]byte(frame), Version); err == nil || !strings.Contains(err.Error(), "engine: identifier section") {
			t.Errorf("%s: DecodeResult answered %v, want the run check's refusal", filepath.Base(path), err)
		}
	}
}

// TestResultSeedsAreCheckedIn: every hostile frame and section frame above is
// in the checked-in corpus (testdata/fuzz/FuzzDecodeResult, named after it),
// byte for byte, so the CI fuzz smoke starts from the frames this file
// builds; and the section frames decode — identifier 0 and a descending list
// are the client's to refuse or read pointwise.
func TestResultSeedsAreCheckedIn(t *testing.T) {
	slug := regexp.MustCompile(`[^a-z0-9]+`)
	for _, h := range append(hostileResultFrames(t), sectionFrames(t)...) {
		path := "testdata/fuzz/FuzzDecodeResult/hostile-" + strings.Trim(slug.ReplaceAllString(strings.ToLower(h.name), "-"), "-")
		seed, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", h.name, err)
			continue
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", h.frame); string(seed) != want {
			t.Errorf("%s is not the %q frame; rewrite it as\n%s", path, h.name, want)
		}
	}
	for _, h := range sectionFrames(t) {
		_, res, _, err := DecodeResult(h.frame, Version)
		if err != nil {
			t.Errorf("%s: %v", h.name, err)
			continue
		}
		for i := range res.Cols.IDs { // a Run a packed run's word at most
			p := &res.Cols.IDs[i]
			var scratch []idlist.Run
			if runs, err := p.Tags(&scratch); err != nil || len(runs) > len(p.Runs) || len(scratch) > 0 {
				t.Errorf("%s: part %d decodes to %d runs from %d bytes (%v)", h.name, i, len(runs), len(p.Runs), err)
			}
		}
	}
}

// BenchmarkEncodeResultWide and BenchmarkDecodeResultWide time the result
// codec on a 16k-group frame, the unit a wide GROUP BY pays per daemon.
func BenchmarkEncodeResultWide(b *testing.B) {
	_, res := wideFrame(b, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(idlist.VBDiff.Name(), res, nil, Version); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResultWide(b *testing.B) {
	p, _ := wideFrame(b, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeResult(p, Version); err != nil {
			b.Fatal(err)
		}
	}
}
