package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seabed/internal/store"
)

// TestReducerBucketsAgree: the vectorized and the reference map task, over
// the same partition, send every group to the same reducer bucket — for u64
// keys (under the dense span and past it), DET keys in a Fixed column,
// variable-width DET bytes and strings, each with inflation off and on. The
// vectorized task buckets its byte keys by the hash its table kept, the
// reference by hashing the key afresh: a reducer merges one key's groups only
// if the two agree, and so do the shards of a fleet.
func TestReducerBucketsAgree(t *testing.T) {
	const rows, groups, buckets = 8192, 600, 4
	u, k, b, s := make([]uint64, rows), make([]uint64, rows), make([][]byte, rows), make([]string, rows)
	for i := range rows {
		g := uint64(i*7919) % groups
		u[i] = g * 13 // about half under denseDefaultEntries, half hashed
		k[i] = g
		s[i] = fmt.Sprintf("dim-%d", g)
		b[i] = detKey.EncryptString(s[i])
	}
	tbl, err := store.Build("t", []store.Column{
		{Name: "u", Kind: store.U64, U64: u},
		detFixed("k", k),
		{Name: "b", Kind: store.Bytes, Bytes: b},
		{Name: "s", Kind: store.Str, Str: s},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Config{Workers: buckets, Seed: 5})
	ctx := context.Background()
	bucketOf := func(tg *taskGroups) map[string]int {
		out := map[string]int{}
		for bk := range buckets {
			if len(tg.bucket(bk)) == 0 {
				t.Fatalf("bucket %d of %d is empty", bk, buckets)
			}
			for _, g := range tg.bucket(bk) {
				key := fmt.Sprint(tg.keys.suffixAt(int(g)), "/")
				if tg.keys.kind == store.U64 {
					key += fmt.Sprint(tg.keys.u64[g])
				} else {
					key += string(tg.keys.bytesAt(int(g)))
				}
				out[key] = bk
			}
		}
		return out
	}
	for _, col := range []string{"u", "k", "b", "s"} {
		for _, inflate := range []int{0, 3} {
			pl := &Plan{Table: tbl, GroupBy: &GroupBy{Col: col, Inflate: inflate}, Aggs: []Agg{{Kind: AggCount}}}
			cp, err := pl.compile(c.cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := pl.compileReference()
			if err != nil {
				t.Fatal(err)
			}
			vec, err := cp.runMapTask(ctx, c, tbl.Parts[0])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := rp.runMapTask(ctx, c, tbl.Parts[0])
			if err != nil {
				t.Fatal(err)
			}
			got, want := bucketOf(vec.groups), bucketOf(ref.groups)
			if len(got) < groups || !reflect.DeepEqual(got, want) {
				t.Errorf("%s, inflate %d: the executors bucket %d and %d groups differently", col, inflate, len(got), len(want))
			}
		}
	}
}

// TestHashKeyPinned pins hashKey's values, byte and string keys alike: the
// hash picks a group's reducer (reducerBucket), which every executor and
// shard must agree on, so a faster hashKey must not move one. The values
// are the byte-at-a-time hash's, before keys were read eight bytes at a load.
func TestHashKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		key  string
		sfx  int32
		want uint64
	}{
		{"", -1, 0xbeeb67eaf1fc5e61},
		{"", 5, 0x53cb9f0c747ea2ea},
		{"a", -1, 0x2f06c1752bacc68a},
		{"a", 0, 0x11636999f96bbf8},
		{"0123456", -1, 0x5a6f7f5b255c6f13},
		{"01234567", -1, 0x3932c90a8e1f23ac},
		{"01234567", 5, 0x4d6569d9d9dcbd0c},
		{"0123456789abcdef", -1, 0x5a3a767cdef80f99},
		{"0123456789abcdef", 0, 0x814cbd9eee1e7610},
		{"0123456789abcdef\x00\xff", -1, 0xb386ed7bbf3bd420},
		{"0123456789abcdef\x00\xff", 5, 0xe3e8a4f8c8e27d5d},
		{"DET ciphertext!!", -1, 0xea7e2bc56dd7b441},
		{"DET ciphertext!!", 5, 0xcc3817254e96db34},
	} {
		if got := hashKey([]byte(tc.key), tc.sfx); got != tc.want {
			t.Errorf("hashKey([]byte(%q), %d) = %#x, want %#x", tc.key, tc.sfx, got, tc.want)
		}
		if got := hashKey(tc.key, tc.sfx); got != tc.want {
			t.Errorf("hashKey(%q, %d) = %#x, want %#x", tc.key, tc.sfx, got, tc.want)
		}
	}
}

// hashKeyBytes is hashKey as it was before any key length had a path of its
// own: eight bytes at a time, then a byte at a time, for every length.
func hashKeyBytes(k []byte, sfx int32) uint64 {
	h := uint64(len(k)) ^ uint64(uint32(sfx))*0x9e3779b97f4a7c15
	i := 0
	for ; i+8 <= len(k); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(k[i:])) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	for ; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 0x100000001b3
	}
	return splitmix64(h)
}

// TestFixedKeyProbe: the 16-byte key path — two words mixed in line
// (hashWords), as the Fixed group columns of every DET and OPE key take it,
// and hashKey's own — hashes every key bit for bit as the general loop does,
// so slots and reducer buckets stay where they were; over
// random keys, other widths too, and every suffix an inflated grouping draws
// (grouper.suffix) besides −1 and the extremes. And the word compare numbers
// keys as a map does, first seen first, through the table's growth, on
// neighbours one bit apart, on keys that differ only in their suffix, and on
// byte and string keys alike. A third table is handed hashes of 0 and 1 in
// place of hashKey's, so that only the compare tells keys apart; it is sized
// for every row to be a new key, because growth re-hashes the keys it holds
// with hashKey and would then place them where no fake hash probes.
func TestFixedKeyProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, width := range []int{16, 8, 15, 17, 32} {
		for _, inflate := range []int{0, 2, 7} {
			g := grouper{inflate: inflate, seed: rng.Uint64()}
			distinct := make([][]byte, 700) // past half of the smallest table: it grows
			for i := range distinct {
				distinct[i] = make([]byte, width)
				rng.Read(distinct[i])
				if i%3 == 1 {
					copy(distinct[i], distinct[i-1])
					distinct[i][rng.Intn(width)] ^= 1 << rng.Intn(8)
				}
			}
			var byBytes, byString, collided slotTable
			byBytes.init(store.Bytes, inflate > 0, 0)
			byString.init(store.Str, inflate > 0, 0)
			collided.init(store.Bytes, inflate > 0, 8000)
			collidedLen := len(collided.table)
			type ks struct {
				key string
				sfx int32
			}
			want := map[ks]int32{}
			for row := range 8000 {
				key := distinct[rng.Intn(len(distinct))]
				sfx := g.suffix(uint64(row) + 1)
				if inflate > 0 && row%97 == 0 { // a table without inflation holds suffix −1 only
					sfx = []int32{-1, 0, math.MaxInt32, math.MinInt32}[row%4]
				}
				h := hashKeyBytes(key, sfx)
				if got, str := hashKey(key, sfx), hashKey(string(key), sfx); got != h || str != h {
					t.Fatalf("width %d: hashKey(%x, %d) = %#x and %#x as a string, want %#x", width, key, sfx, got, str, h)
				}
				if width == 16 {
					if got := hashWords(binary.LittleEndian.Uint64(key), binary.LittleEndian.Uint64(key[8:]), sfx); got != h {
						t.Fatalf("hashWords(%x, %d) = %#x, want %#x", key, sfx, got, h)
					}
				}
				s, ok := want[ks{string(key), sfx}]
				if !ok {
					s = int32(len(want))
					want[ks{string(key), sfx}] = s
				}
				a, b := slotKeyed(&byBytes, key, sfx, h), slotKeyed(&byString, string(key), sfx, h)
				c := slotKeyed(&collided, key, sfx, h&1) // every key hashed to 0 or 1: the compare decides
				if a != s || b != s || c != s {
					t.Fatalf("width %d, row %d: slot %d, %d as a string, %d hashed alike, want %d", width, row, a, b, c, s)
				}
			}
			if byBytes.len() != len(want) || !reflect.DeepEqual(byBytes.arena, byString.arena) || len(byBytes.table) <= 1024 {
				t.Fatalf("width %d, inflate %d: %d slots of %d keys, table of %d", width, inflate, byBytes.len(), len(want), len(byBytes.table))
			}
			if len(collided.table) != collidedLen {
				t.Fatalf("width %d, inflate %d: the table of fake hashes grew", width, inflate)
			}
		}
	}
}

// BenchmarkHashKey times hashKey on 16-byte keys, a DET ciphertext's length.
func BenchmarkHashKey(b *testing.B) {
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%016x", i*2654435761))
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += hashKey(keys[i&1023], -1)
	}
	_ = sink
}
