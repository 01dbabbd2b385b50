package workload

import "seabed/internal/planner"

// The MDX function catalog of Appendix B (Table 6): all 38 functions of the
// industry-standard BI interface, each with the way Seabed supports it and
// the resulting Table 4 category.

// MDXFunction is one Table 6 row.
type MDXFunction struct {
	No          int
	Name        string
	Description string
	How         string
	Category    planner.Category
}

// MDXCatalog returns Table 6 verbatim.
func MDXCatalog() []MDXFunction {
	S, CPre, CPost, TwoR := planner.Server, planner.ClientPre, planner.ClientPost, planner.TwoRoundTrips
	return []MDXFunction{
		{1, "Aggregate", "Aggregates of measures", "ASHE for Sum, Count; OPE for Max, Min", S},
		{2, "Avg", "Average of measures", "ASHE for Sum, Count; Client does division", S},
		{3, "CalculationCurrentPass", "Current calculation pass of cube", "Independent of Seabed", S},
		{4, "CalculationPassValue", "Returns MDX expression value after current pass", "Independent of Seabed", S},
		{5, "CoalesceEmpty", "Updates empty value to numeric/string", "Can be done with extra counter with identity", CPre},
		{6, "Correlation", "Correlation coefficient of two series X, Y", "ASHE & precomputation of XY; Client does division", CPre},
		{7, "Count(Dimensions)", "Number of dimensions in cube", "Independent of Seabed", S},
		{8, "Count(Hierarchy Levels)", "Number of levels in hierarchy", "Independent of Seabed", S},
		{9, "Count(Set)", "Number of elements in a set", "Using DE or SPLASHE", S},
		{10, "Count(Tuple)", "Number of dimensions in tuple", "Independent of Seabed", S},
		{11, "Covariance", "Covariance of X, Y", "Same as Correlation", CPre},
		{12, "CovarianceN", "Covariance of X, Y (with division by N-1)", "Same as Correlation", CPre},
		{13, "DistinctCount", "Counts distinct elements", "Using DE or SPLASHE", S},
		{14, "IIf", "One of two values based on logical test", "Two values sent back to the client", CPost},
		{15, "LinRegIntercept", "Intercept in the regression line (least squares)", "Data sent back to client for every iteration", TwoR},
		{16, "LinRegPoint", "y in the regression line", "Same as LinRegIntercept", TwoR},
		{17, "LinRegR2", "Coefficient of determination", "Same as LinRegIntercept", TwoR},
		{18, "LinRegSlope", "Slope of the regression line", "Same as LinRegIntercept", TwoR},
		{19, "LinRegVariance", "Variance associated with regression line", "Same as LinRegIntercept", TwoR},
		{20, "LookupCube", "MDX expression over a cube", "Data sent back to client for computation", CPost},
		{21, "Max", "Maximum value in set", "Using OPE", S},
		{22, "Median", "Median value in set", "Using OPE", S},
		{23, "Min", "Minimum value in set", "Using OPE", S},
		{24, "Ordinal", "Zero-based ordinal value", "Using OPE", S},
		{25, "Predict", "Value of expression over data mining model", "Data sent back to client for computation", CPost},
		{26, "Rank", "One-based rank of set", "Using OPE", S},
		{27, "RollupChildren", "Value generated by rolling up values of children", "Data sent back to client for computation", CPost},
		{28, "Stddev", "Standard deviation of a set X", "ASHE when client uploads encrypted X² terms", CPre},
		{29, "StddevP", "Std. dev. using biased population formula", "Same as Stddev", CPre},
		{30, "Stdev", "Alias for Stddev", "Same as Stddev", CPre},
		{31, "StdevP", "Alias for StddevP", "Same as Stddev", CPre},
		{32, "StrToValue", "Value of MDX-formatted string", "Independent of Seabed", S},
		{33, "Sum", "Sum over a set", "Using ASHE", S},
		{34, "Value", "Value of a measure as a string", "Independent of Seabed", S},
		{35, "Var", "Variance of a set X", "Same as Stddev", CPre},
		{36, "Variance", "Alias for Var", "Same as Stddev", CPre},
		{37, "VarianceP", "Alias for VarP", "Same as Stddev", CPre},
		{38, "VarP", "Variance using biased population formula", "Same as Stddev", CPre},
	}
}

// CategoryCounts summarizes a Table 4 row.
type CategoryCounts struct {
	Total, Server, ClientPre, ClientPost, TwoRound int
}

// Add increments the counter for one category.
func (c *CategoryCounts) Add(cat planner.Category) {
	c.Total++
	switch cat {
	case planner.Server:
		c.Server++
	case planner.ClientPre:
		c.ClientPre++
	case planner.ClientPost:
		c.ClientPost++
	case planner.TwoRoundTrips:
		c.TwoRound++
	}
}

// MDXCounts classifies the catalog (the Table 4 "MDX" row: 38 total, 17 S,
// 12 CPre, 4 CPost, 5 2R).
func MDXCounts() CategoryCounts {
	var c CategoryCounts
	for _, f := range MDXCatalog() {
		c.Add(f.Category)
	}
	return c
}

// TPCDSReference is the Table 4 "TPC-DS" row, encoded from the paper (the
// per-query TPC-DS SQL is not reproduced here; README.md, "Paper figures:
// what is substituted", item 5).
var TPCDSReference = CategoryCounts{Total: 99, Server: 69, ClientPre: 2, ClientPost: 25, TwoRound: 3}

// AdLogReference is the Table 4 "Ad Analytics" row: the month-long
// production query log's classification.
var AdLogReference = CategoryCounts{Total: 168352, Server: 134298, ClientPre: 0, ClientPost: 34054, TwoRound: 0}

// AdLogQuery is one entry of the generated ad-analytics query log.
type AdLogQuery struct {
	SQL    string
	Traits planner.QueryTraits
}

// GenerateAdLog simulates the proprietary month-long query log (README.md,
// "Paper figures: what is substituted", item 4): total queries with exactly the production mix of purely-server
// and client-post-processing queries, shuffled deterministically. Running
// planner.Classify over the result reproduces the Table 4 row.
func GenerateAdLog(total int, seed int64) []AdLogQuery {
	if total <= 0 {
		total = AdLogReference.Total
	}
	// Scale the production mix to the requested total.
	post := total * AdLogReference.ClientPost / AdLogReference.Total
	out := make([]AdLogQuery, 0, total)
	for i := 0; i < total; i++ {
		q := AdLogQuery{
			SQL: "SELECT hour, SUM(m" + string(rune('0'+i%10)) + ") FROM ada WHERE hour < " +
				string(rune('1'+i%9)) + " GROUP BY hour",
		}
		if i < post {
			q.Traits.UDF = true // anomaly-detection style post-processing
		}
		out = append(out, q)
	}
	// Deterministic shuffle.
	rng := seededRng(seed)
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// ClassifyLog runs the planner's classifier over a query log.
func ClassifyLog(log []AdLogQuery) (CategoryCounts, error) {
	var c CategoryCounts
	for _, q := range log {
		parsed, err := parseCached(q.SQL)
		if err != nil {
			return c, err
		}
		c.Add(planner.Classify(parsed, q.Traits))
	}
	return c, nil
}
