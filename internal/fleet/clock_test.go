package fleet

import (
	"context"
	"slices"
	"testing"
	"time"

	"seabed/internal/client"
	"seabed/internal/obs"
)

// TestOneClock checks, on a traced group-by run in process and through an R=2
// fleet over loopback, that every reported time is an interval a clock took:
// each span lies inside its parent, the engine's stages follow one another
// inside the run that holds them, and the result's breakdown fits inside the
// caller's own stopwatch. Orderings only — no duration is compared with a
// constant.
func TestOneClock(t *testing.T) {
	local := fixture(t)
	fleet, _ := fleetTwin(t, local, 2)
	for _, tc := range []struct {
		name      string
		proxy     *client.Proxy
		stageSets int // engine runs in the trace: one, or one per range
	}{
		{"in-process", local, 1},
		{"fleet R=2", fleet, numDaemons},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			res, err := tc.proxy.Query(context.Background(), "SELECT hour, SUM(revenue) FROM sales GROUP BY hour")
			stopwatch := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			root := res.Trace()
			run := root.FindSpan("run")
			if run == nil {
				t.Fatalf("no run span:\n%s", root)
			}
			if res.TotalTime != root.Duration() || res.ServerTime != run.Duration() {
				t.Fatalf("total %v, server %v; trace says %v and %v", res.TotalTime, res.ServerTime, root.Duration(), run.Duration())
			}
			if res.ServerTime <= 0 || res.ClientTime <= 0 || res.TotalTime < res.ServerTime+res.ClientTime {
				t.Fatalf("total %v < server %v + client %v", res.TotalTime, res.ServerTime, res.ClientTime)
			}
			if res.TotalTime > stopwatch {
				t.Fatalf("total %v exceeds the caller's stopwatch %v", res.TotalTime, stopwatch)
			}
			if sets := checkSpans(t, root, root); sets != tc.stageSets {
				t.Fatalf("%d spans hold engine stages, want %d:\n%s", sets, tc.stageSets, root)
			}
		})
	}
}

// checkSpans walks the tree under s: every child must lie inside its parent,
// and where the children include the engine's stages — map, reduce, driver —
// those must not overlap and must each be present. It returns how many spans
// held a stage set.
func checkSpans(t *testing.T, root, s *obs.Span) (stageSets int) {
	t.Helper()
	end := func(sp *obs.Span) time.Time { return sp.Start().Add(sp.Duration()) }
	var stages []*obs.Span
	for _, c := range s.Children() {
		if c.Start().Before(s.Start()) || end(c).After(end(s)) {
			t.Fatalf("span %q [%v, +%v] leaves its parent %q [%v, +%v]:\n%s", c.Name(),
				c.Start().Sub(root.Start()), c.Duration(), s.Name(), s.Start().Sub(root.Start()), s.Duration(), root)
		}
		switch c.Name() {
		case "map", "reduce", "driver":
			stages = append(stages, c)
		}
		stageSets += checkSpans(t, root, c)
	}
	if len(stages) == 0 {
		return stageSets
	}
	slices.SortFunc(stages, func(a, b *obs.Span) int { return a.Start().Compare(b.Start()) })
	var names []string
	var sum time.Duration
	for i, st := range stages {
		if i > 0 && st.Start().Before(end(stages[i-1])) {
			t.Fatalf("stage %q starts before %q ends:\n%s", st.Name(), stages[i-1].Name(), root)
		}
		names = append(names, st.Name())
		sum += st.Duration()
	}
	// The driver works twice: it compiles before the map stage and gathers
	// after the last reducer.
	if want := []string{"driver", "map", "reduce", "driver"}; !slices.Equal(names, want) {
		t.Fatalf("stages under %q are %v, want %v:\n%s", s.Name(), names, want, root)
	}
	if sum > s.Duration() {
		t.Fatalf("stages sum to %v inside a %v %q:\n%s", sum, s.Duration(), s.Name(), root)
	}
	return stageSets + 1
}
