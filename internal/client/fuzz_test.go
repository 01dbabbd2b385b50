package client

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"seabed/internal/engine"
	"seabed/internal/sqlparse"
	"seabed/internal/translate"
	"seabed/internal/wire"
)

// FuzzDecryptResults feeds what a fleet's daemons answer a grouped query —
// one to three result frames, any of them hostile — through everything the
// proxy does with them: wire.DecodeResult, engine.Merge under the query's
// plan, and Decrypt. The daemons are untrusted, so every step past the
// decoder must answer or refuse too: a result or an error, never a panic.
// The queries are the dashboard's dense group-by (6 DET-keyed hours) and a
// wide one (clicks, about 3,600 groups over 4,000 rows). The seeds are each
// query's honest frames, every frame in FuzzDecodeResult's corpus alone, and
// each corpus frame in place of one honest shard.
func FuzzDecryptResults(f *testing.F) {
	p := salesProxyClicks(f, 1, 1<<14, translate.Seabed)
	cl := engine.NewCluster(engine.Config{Workers: 2})
	queries := []string{
		"SELECT hour, SUM(revenue) FROM sales GROUP BY hour",
		"SELECT clicks, SUM(revenue) FROM sales GROUP BY clicks",
	}
	trs := make([]*translate.Translation, len(queries))
	honest := make([][][]byte, len(queries))
	for q, sql := range queries {
		stmt, err := sqlparse.ParseStatement(sql)
		if err != nil {
			f.Fatal(err)
		}
		if trs[q], err = translate.Translate(stmt.Query, p, p.Ring(), translate.Seabed, translate.Options{Workers: cl.Workers()}); err != nil {
			f.Fatal(err)
		}
		pl := trs[q].Server
		for _, sub := range pl.Table.SplitRanges(3) {
			scoped := *pl
			scoped.Partial, scoped.Range = true, &engine.IDRange{Lo: sub.Parts[0].StartID, Hi: sub.EndID()}
			res, err := cl.Run(context.Background(), &scoped)
			if err != nil {
				f.Fatal(err)
			}
			frame, err := wire.EncodeResult(pl.Codec.Name(), res, nil, wire.Version)
			if err != nil {
				f.Fatal(err)
			}
			honest[q] = append(honest[q], frame)
		}
	}
	corpus := resultCorpus(f)
	for q := range queries {
		h := honest[q]
		f.Add(uint8(q), uint8(2), h[0], h[1], h[2])
		for _, frame := range corpus {
			f.Add(uint8(q), uint8(0), frame, []byte(nil), []byte(nil))
			f.Add(uint8(q), uint8(2), h[0], frame, h[2])
		}
	}

	f.Fuzz(func(t *testing.T, query, shards uint8, a, b, c []byte) {
		tr := trs[int(query)%len(trs)]
		frames := [][]byte{a, b, c}[:int(shards)%3+1]
		partials := make([]*engine.Result, 0, len(frames))
		for _, frame := range frames {
			_, res, _, err := wire.DecodeResult(frame, wire.Version)
			if err != nil {
				return
			}
			partials = append(partials, res)
		}
		merged, err := engine.Merge(tr.Server, partials)
		if err != nil {
			return
		}
		_, _ = Decrypt(tr, merged, p.Ring()) // a result or an error; a panic fails the fuzz
	})
}

// resultCorpus reads the frames of wire.FuzzDecodeResult's checked-in seed
// corpus.
func resultCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../wire/testdata/fuzz/FuzzDecodeResult/*")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no FuzzDecodeResult corpus (%v)", err)
	}
	var frames [][]byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		frame, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			tb.Fatalf("%s: not a one-[]byte corpus file (%v)", path, err)
		}
		frames = append(frames, []byte(frame))
	}
	return frames
}
