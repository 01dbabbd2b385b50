package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"seabed/internal/durable"
	"seabed/internal/store"
)

// This file holds the bucketed group-by's lifecycle tests: its map tasks
// leave their partitions pinned for the reducers, and every path out of the
// run — success, a failed map task, a cancellation inside the reduce — must
// release every pin, so the residency budget is overshot for one run at most.

// pinBudget is the residency budget of these tests: below the columns one
// wide group-by pins (pinnedRows rows of a 16-byte key and an 8-byte ASHE
// body, 48 KiB a partition), above one whole partition (64 KiB with its
// plaintext column) but not two.
const (
	pinnedRows, pinnedParts = 12288, 6
	pinBudget               = 80 << 10
)

// assertUnpinned checks that no partition of tbl holds a pin: the next charge
// — one partition pinned whole, then another — must evict every other
// partition, which the residency manager does to a partition only once its
// pin count is 0, and bring the resident bytes back under the budget.
func assertUnpinned(t *testing.T, name string, tbl *store.Table, res *store.Residency) {
	t.Helper()
	for _, at := range []int{0, 1} {
		release, err := tbl.Parts[at].Pin(nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
		for i, p := range tbl.Parts {
			if i != at && p.MemBytes() != 0 {
				t.Errorf("%s: partition %d stays resident past partition %d's charge: it is still pinned", name, i, at)
			}
		}
		if st := res.Stats(); st.ResidentBytes > pinBudget {
			t.Errorf("%s: %d bytes stay resident after the next charge, over the %d-byte budget", name, st.ResidentBytes, pinBudget)
		}
	}
}

// TestBucketedRunOverBudget runs a bucketed wide group-by over a durable
// store whose residency budget is below the columns the run pins: the run
// holds the daemon above its budget while it runs, returns the groups the
// per-task strategy returns, and leaves no pin behind.
func TestBucketedRunOverBudget(t *testing.T) {
	dir := t.TempDir()
	heap := detKeyFixture(t, pinnedRows, 1<<13, pinnedParts, false)
	s, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("det", heap); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = durable.Open(durable.Options{Dir: dir, MaxResidentBytes: pinBudget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tbl := s.Tables()["det"]
	if len(tbl.Parts) != pinnedParts || !tbl.Parts[0].IsView() {
		t.Fatalf("the store serves %d partitions (view: %v), want %d views", len(tbl.Parts), tbl.Parts[0].IsView(), pinnedParts)
	}

	c := NewCluster(Config{Workers: 4})
	ctx := context.Background()
	mk := func() *Plan { return wideBytesGroupByPlan(tbl) }
	ref, err := c.RunReference(ctx, wideBytesGroupByPlan(heap))
	if err != nil {
		t.Fatal(err)
	}
	tables, buckets := bothStrategies(t, c, "over budget", mk, ref)
	if buckets.Metrics.Ops.ColumnPins == 0 || len(tables.View()) != 1<<13 {
		t.Fatalf("the bucketed run pinned %d columns for %d groups", buckets.Metrics.Ops.ColumnPins, len(tables.View()))
	}
	assertUnpinned(t, "success", tbl, s.Residency())

	// While it runs, a bucketed run holds every partition it read: the budget
	// is overshot until the reducers finish, and by that run alone.
	if _, err := c.run(ctx, mk(), false, nil, groupBuckets); err != nil {
		t.Fatal(err)
	}
	if st := s.Residency().Stats(); st.ResidentBytes <= pinBudget {
		t.Errorf("a bucketed run left %d bytes resident, want its whole pinned set (over %d)", st.ResidentBytes, pinBudget)
	}
	assertUnpinned(t, "second success", tbl, s.Residency())
}

// viewTable serves heap's partitions as views charged to res; the partition
// at index fail (−1 for none) fails to load its columns.
func viewTable(t *testing.T, heap *store.Table, res *store.Residency, fail int) *store.Table {
	t.Helper()
	parts := make([]*store.Partition, len(heap.Parts))
	for i, p := range heap.Parts {
		meta := make([]store.ColMeta, len(p.Cols))
		for ci := range p.Cols {
			meta[ci] = p.Cols[ci].Meta()
		}
		parts[i] = store.NewViewPartition(p.StartID, p.NumRows(), meta, heapLoader{p, i == fail}, res)
	}
	tbl, err := store.Assemble(heap.Name, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// heapLoader loads a view partition's columns from a heap partition, or
// fails to.
type heapLoader struct {
	part *store.Partition
	fail bool
}

func (l heapLoader) LoadColumn(i int) (store.Column, error) {
	if l.fail {
		return store.Column{}, errors.New("column unreadable")
	}
	return l.part.Cols[i], nil
}

// TestBucketedRunReleasesPinsOnTaskError: the last map task fails to fault
// its columns in, after every other task has bucketed its rows and kept its
// partition pinned for the reducers; the run fails and releases them all.
func TestBucketedRunReleasesPinsOnTaskError(t *testing.T) {
	heap := detKeyFixture(t, pinnedRows, 1<<13, pinnedParts, false)
	res := store.NewResidency(pinBudget)
	tbl := viewTable(t, heap, res, pinnedParts-1)
	c := NewCluster(Config{Workers: 4, RealParallelism: 1})
	_, err := c.run(context.Background(), wideBytesGroupByPlan(tbl), false, nil, groupBuckets)
	if err == nil || err.Error() != "column unreadable" {
		t.Fatalf("the run returned %v, want the failed task's error", err)
	}
	assertUnpinned(t, "task error", tbl, res)
}

// reduceCancel is a context that cancels itself inside a bucketed run's
// reduce, on events rather than a clock. Its Err is nil until every
// partition has faulted its columns in — with one map task at a time, the
// last task has started, and a bucketed run's tasks keep their partitions
// pinned, so none is evicted — then passes the run's own check after the map
// stage and fails every later call, the reducers' first poll among them.
type reduceCancel struct {
	context.Context
	parts []*store.Partition

	mu    sync.Mutex
	polls int // calls since every partition was resident
}

func (c *reduceCancel) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.parts {
		if p.MemBytes() == 0 {
			return nil
		}
	}
	c.polls++
	if c.polls == 1 {
		return nil
	}
	return context.Canceled
}

// TestBucketedRunReleasesPinsOnCancel cancels a bucketed run while its
// reducers group: the run returns context.Canceled and no pin survives it.
func TestBucketedRunReleasesPinsOnCancel(t *testing.T) {
	heap := detKeyFixture(t, pinnedRows, 1<<13, pinnedParts, false)
	res := store.NewResidency(pinBudget)
	tbl := viewTable(t, heap, res, -1)
	c := NewCluster(Config{Workers: 4, RealParallelism: 1})
	ctx := &reduceCancel{Context: context.Background(), parts: tbl.Parts}
	for i, p := range tbl.Parts {
		if p.MemBytes() != 0 {
			t.Fatalf("partition %d is resident before the run", i)
		}
	}
	_, err := c.run(ctx, wideBytesGroupByPlan(tbl), false, nil, groupBuckets)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("the run returned %v, want context.Canceled", err)
	}
	if ctx.polls < 2 {
		t.Fatalf("the context was polled %d times once the map stage finished: no reducer polled it", ctx.polls)
	}
	assertUnpinned(t, "cancel", tbl, res)
}
