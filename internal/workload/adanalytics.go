package workload

import (
	"fmt"
	"math/rand"

	"seabed/internal/schema"
	"seabed/internal/splashe"
	"seabed/internal/store"
)

// The advertising-analytics application of §6.6: 33 dimensions, 18 measures,
// hour-of-day group-by queries with 1–12 groups, and 10 sensitive dimensions
// with skewed value distributions spanning the cardinality range of
// Figure 10(b). The proprietary dataset is simulated (README.md, "Paper
// figures: what is substituted", item 4).

// AdAConfig scales the workload.
type AdAConfig struct {
	// Rows is the table size (paper: 759M).
	Rows int
	Seed int64
}

// AdA bundles the generated workload.
type AdA struct {
	Table  *store.Table
	Schema *schema.Table
	// SensitiveDims lists the 10 dimensions requiring encryption, in
	// ascending cardinality order (Figure 10b's x-axis).
	SensitiveDims []string
	// EncMeasures lists the 10 measures requiring encryption (§6.6).
	EncMeasures []string
}

// adaDimCardinalities spans the Figure 10(b) range (sorted ascending).
var adaDimCardinalities = []int{8, 12, 24, 48, 96, 192, 384, 768, 1536, 3072}

// adaSplayMeasuresPerDim is the number of measures co-used with (and hence
// splayed under) each sensitive dimension (§4.2: "only these measure columns
// need to be SPLASHE-encrypted").
const adaSplayMeasuresPerDim = 3

// AdASamples returns the sample queries the planner sees: hour-of-day
// group-bys over each encrypted measure, with occasional range filters.
func AdASamples() []string {
	samples := []string{}
	for i := 0; i < 10; i++ {
		samples = append(samples,
			fmt.Sprintf("SELECT hour, SUM(m%d) FROM ada WHERE hour < 8 GROUP BY hour", i))
	}
	// Equality filters on the first two sensitive dims keep them SPLASHE
	// candidates.
	samples = append(samples,
		"SELECT SUM(m0) FROM ada WHERE sdim0 = 1",
		"SELECT SUM(m1) FROM ada WHERE sdim1 = 2",
	)
	return samples
}

// GenerateAdA builds the workload.
func GenerateAdA(cfg AdAConfig) (*AdA, error) {
	if cfg.Rows < 1 {
		return nil, fmt.Errorf("workload: AdA rows must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows

	cols := make([]store.Column, 0, 52)
	scols := make([]schema.Column, 0, 52)

	// hour-of-day: the grouping dimension every query uses.
	hour := make([]uint64, n)
	for i := range hour {
		hour[i] = uint64(rng.Intn(24))
	}
	cols = append(cols, store.Column{Name: "hour", Kind: store.U64, U64: hour})
	scols = append(scols, schema.Column{Name: "hour", Type: schema.Int64, Sensitive: true, Cardinality: 24})

	// 18 measures, 10 sensitive (m0..m9), 8 public (p0..p7).
	var encMeasures []string
	for m := 0; m < 18; m++ {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rng.Intn(100000))
		}
		name := fmt.Sprintf("p%d", m-10)
		sensitive := m < 10
		if sensitive {
			name = fmt.Sprintf("m%d", m)
			encMeasures = append(encMeasures, name)
		}
		cols = append(cols, store.Column{Name: name, Kind: store.U64, U64: vals})
		scols = append(scols, schema.Column{Name: name, Type: schema.Int64, Sensitive: sensitive})
	}

	// 10 sensitive dimensions with skewed distributions (sdim0..sdim9), plus
	// 22 public dimensions (pdim0..pdim21) to reach 33 dims with hour.
	var sensDims []string
	for d, card := range adaDimCardinalities {
		name := fmt.Sprintf("sdim%d", d)
		sensDims = append(sensDims, name)
		freqs := skewedFreqs(card, uint64(n), rng)
		vals := sampleFromFreqs(freqs, n, rng)
		cols = append(cols, store.Column{Name: name, Kind: store.U64, U64: vals})
		scols = append(scols, schema.Column{
			Name: name, Type: schema.Int64, Sensitive: true,
			Cardinality: card, Freqs: freqs,
		})
	}
	for d := 0; d < 22; d++ {
		name := fmt.Sprintf("pdim%d", d)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rng.Intn(50))
		}
		cols = append(cols, store.Column{Name: name, Kind: store.U64, U64: vals})
		scols = append(scols, schema.Column{Name: name, Type: schema.Int64, Sensitive: false})
	}

	tbl, err := store.Build("ada", cols, 1)
	if err != nil {
		return nil, err
	}
	return &AdA{
		Table:         tbl,
		Schema:        &schema.Table{Name: "ada", Columns: scols},
		SensitiveDims: sensDims,
		EncMeasures:   encMeasures,
	}, nil
}

// skewedFreqs builds a heavy-hitter frequency vector summing to total: two
// dominant values own ~65% of the rows and the tail is near-uniform with
// small jitter — the §3.4 shape (e.g. a Canadian company with most employees
// in USA or Canada). This keeps the enhanced layout's k small regardless of
// cardinality, which is exactly the property Figure 10(b) exploits.
func skewedFreqs(card int, total uint64, rng *rand.Rand) []uint64 {
	freqs := make([]uint64, card)
	freqs[0] = total * 40 / 100
	if card > 1 {
		freqs[1] = total * 25 / 100
	}
	rest := total - freqs[0] - freqs[1]
	tail := uint64(card - 2)
	if tail == 0 {
		freqs[0] += rest
		return freqs
	}
	var used uint64
	for i := 2; i < card; i++ {
		base := rest / tail
		jitter := uint64(0)
		if base > 10 {
			jitter = uint64(rng.Intn(int(base / 5))) // ±20% spread
		}
		f := base - base/10 + jitter
		if f == 0 {
			f = 1
		}
		freqs[i] = f
		used += f
	}
	// Fix drift on the heavy hitters.
	for used > rest {
		if freqs[0] > 1 {
			freqs[0]--
			used--
		} else {
			break
		}
	}
	freqs[0] += rest - used
	return freqs
}

// sampleFromFreqs materializes a column matching the frequency vector
// exactly, shuffled (Appendix A.2's uniform-row-order assumption).
func sampleFromFreqs(freqs []uint64, n int, rng *rand.Rand) []uint64 {
	out := make([]uint64, 0, n)
	for v, c := range freqs {
		for i := uint64(0); i < c && len(out) < n; i++ {
			out = append(out, uint64(v))
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// AdAPerfQueries returns the §6.6 performance query set: five queries per
// group count in {1, 4, 8}, each summing a different measure.
func AdAPerfQueries() []struct {
	Name   string
	SQL    string
	Groups int
} {
	var out []struct {
		Name   string
		SQL    string
		Groups int
	}
	for _, groups := range []int{1, 4, 8} {
		for q := 0; q < 5; q++ {
			out = append(out, struct {
				Name   string
				SQL    string
				Groups int
			}{
				Name:   fmt.Sprintf("g%d-q%d", groups, q),
				SQL:    fmt.Sprintf("SELECT hour, SUM(m%d) FROM ada WHERE hour < %d GROUP BY hour", q, groups),
				Groups: groups,
			})
		}
	}
	return out
}

// SplasheOverhead reports Figure 10(b): for each sensitive dimension (in
// ascending cardinality), the cumulative storage overhead factor of basic
// and enhanced SPLASHE over the plaintext table.
type SplasheOverhead struct {
	Dim         string
	Cardinality int
	// CumBasic and CumEnhanced are cumulative storage factors after
	// splaying this dimension and all smaller ones.
	CumBasic    float64
	CumEnhanced float64
	// K is the enhanced layout's dedicated-column count.
	K int
}

// AdASplasheOverheads computes Figure 10(b) from the declared dimension
// distributions: each splayed dimension adds indicator columns and splays
// the measures co-used with it (adaSplayMeasuresPerDim of them, per §4.2);
// overheads accumulate relative to the plaintext row width (33 dims + 18
// measures, 8 bytes each).
func (a *AdA) AdASplasheOverheads() ([]SplasheOverhead, error) {
	const plainRow = 8.0 * (33 + 18)
	cumBasic, cumEnh := plainRow, plainRow
	out := make([]SplasheOverhead, 0, len(a.SensitiveDims))
	for _, dim := range a.SensitiveDims {
		col := a.Schema.Column(dim)
		basic, err := splashe.PlanBasic(col.Cardinality)
		if err != nil {
			return nil, err
		}
		enh, err := splashe.PlanEnhanced(col.Freqs)
		if err != nil {
			return nil, err
		}
		const nm = adaSplayMeasuresPerDim
		cumBasic += 8 * float64(basic.NumDimColumns()+nm*basic.NumSplayColumns())
		cumEnh += 8*float64(enh.NumDimColumns()-1+nm*enh.NumSplayColumns()) + 16 // DET col is 16B
		out = append(out, SplasheOverhead{
			Dim:         dim,
			Cardinality: col.Cardinality,
			CumBasic:    cumBasic / plainRow,
			CumEnhanced: cumEnh / plainRow,
			K:           enh.K,
		})
	}
	return out, nil
}
