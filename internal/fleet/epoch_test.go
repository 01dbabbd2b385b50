package fleet

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseEpoch feeds the epoch-file parser arbitrary bytes, as a damaged or
// hand-edited file could hold them: it must never panic, and a file it
// accepts must re-marshal and parse to an equal placement. Seeds are a file as
// persistEpoch writes it, its lies (another format, a table short of a range),
// and truncations.
func FuzzParseEpoch(f *testing.F) {
	good := epochFile{
		Format:   epochFormat,
		Epoch:    7,
		Replicas: 2,
		Addrs:    []string{"127.0.0.1:7787", "127.0.0.1:7788", "127.0.0.1:7789"},
		Tables: map[string]epochTable{
			"sales@Seabed": {Ranges: []epochRange{{Lo: 1, Hi: 4000}, {Lo: 4001, Hi: 8000}, {Lo: 8001, Hi: 12000}}},
			"dims@NoEnc":   {Ranges: []epochRange{{Lo: 1, Hi: 0}, {Lo: 1, Hi: 5}, {Lo: 1, Hi: 0}}, AllShipped: true},
		},
	}
	seed := func(e epochFile) []byte {
		data, err := json.MarshalIndent(&e, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	data := seed(good)
	if _, err := parseEpoch(data); err != nil {
		f.Fatalf("the good seed does not parse: %v", err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-1])
	other := good
	other.Format = epochFormat + 1
	f.Add(seed(other))
	short := good
	short.Tables = map[string]epochTable{"sales@Seabed": {Ranges: good.Tables["sales@Seabed"].Ranges[:2]}}
	f.Add(seed(short))
	for _, s := range []string{"", "{}", "null", `{"format":1,"tables":{"t":null}}`, `{"format":1,"epoch":-1}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ep, err := parseEpoch(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(ep)
		if err != nil {
			t.Fatalf("an accepted epoch file does not marshal: %v", err)
		}
		back, err := parseEpoch(again)
		if err != nil {
			t.Fatalf("an accepted epoch file re-marshals to one that fails: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(back, ep) {
			t.Fatalf("an accepted epoch file re-parses differently:\n %+v\nwant\n %+v", back, ep)
		}
	})
}
