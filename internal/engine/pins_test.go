package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seabed/internal/durable"
	"seabed/internal/store"
)

// This file holds the map tasks' pin tests: a task pins the columns it reads
// for its own duration, and every path out of it — success, a failed fault, a
// cancellation — releases them, so a run holds a daemon above its residency
// budget by its in-flight tasks' pins at most.

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

// TestGroupedRunWithinBudget runs a raw wide group-by twice over a durable
// store whose residency budget is below the columns the run pins: a DET key
// whose codebook refuses it, at a quarter of a row per group per map task.
// With one map task at a time, each run leaves the daemon within its budget,
// returns the reference's groups, and leaves no pin behind; the second run,
// sized by the first, answers as the first did.
func TestGroupedRunWithinBudget(t *testing.T) {
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
	if len(tbl.Parts) != pinnedParts || tbl.MemBytes() != 0 {
		t.Fatalf("the store serves %d partitions holding %d bytes, want %d views holding none", len(tbl.Parts), tbl.MemBytes(), pinnedParts)
	}

	c := NewCluster(Config{Workers: 4, RealParallelism: 1})
	ctx := context.Background()
	ref, err := c.RunReference(ctx, wideBytesGroupByPlan(heap))
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for run := range 2 {
		pl := wideBytesGroupByPlan(tbl)
		vec, err := c.Run(ctx, pl)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("run %d", run)
		if st := s.Residency().Stats(); st.ResidentBytes > pinBudget {
			t.Errorf("%s left %d bytes resident, over the %d-byte budget", name, st.ResidentBytes, pinBudget)
		}
		if vec.Metrics.Ops.ColumnPins != 2*pinnedParts || len(vec.View()) != 1<<13 || !tookSlots(vec) {
			t.Fatalf("%s pinned %d columns for %d groups (%+v)", name, vec.Metrics.Ops.ColumnPins, len(vec.View()), vec.Metrics.Ops)
		}
		assertSameResult(t, name, vec, ref)
		if first == nil {
			first = vec
		} else {
			assertSameResult(t, name+" vs run 0", vec, first)
		}
		assertUnpinned(t, name, tbl, s.Residency())
	}
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

// TestRunReleasesPinsOnTaskError: the last map task fails to fault its
// columns in, after every other task has grouped its rows; the run fails and
// no pin survives it.
func TestRunReleasesPinsOnTaskError(t *testing.T) {
	heap := detKeyFixture(t, pinnedRows, 1<<13, pinnedParts, false)
	res := store.NewResidency(pinBudget)
	tbl := viewTable(t, heap, res, pinnedParts-1)
	c := NewCluster(Config{Workers: 4, RealParallelism: 1})
	_, err := c.Run(context.Background(), wideBytesGroupByPlan(tbl))
	if err == nil || err.Error() != "column unreadable" {
		t.Fatalf("the run returned %v, want the failed task's error", err)
	}
	assertUnpinned(t, "task error", tbl, res)
}

// mapCancel is a context that cancels itself inside a run's map stage, on
// events rather than a clock: its Err is nil until a partition holds columns
// faulted in, and context.Canceled from then on.
type mapCancel struct {
	context.Context
	parts []*store.Partition
}

func (c *mapCancel) Err() error {
	for _, p := range c.parts {
		if p.MemBytes() != 0 {
			return context.Canceled
		}
	}
	return nil
}

// TestRunReleasesPinsOnCancel cancels a grouped run once its first map task
// has faulted its columns in: the run returns context.Canceled, launches no
// further task once it sees the cancel, and no pin survives it.
func TestRunReleasesPinsOnCancel(t *testing.T) {
	heap := detKeyFixture(t, pinnedRows, 1<<13, pinnedParts, false)
	res := store.NewResidency(pinBudget)
	tbl := viewTable(t, heap, res, -1)
	c := NewCluster(Config{Workers: 4, RealParallelism: 1})
	ctx := &mapCancel{Context: context.Background(), parts: tbl.Parts}
	if err := ctx.Err(); err != nil {
		t.Fatal("a partition is resident before the run")
	}
	_, err := c.Run(ctx, wideBytesGroupByPlan(tbl))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("the run returned %v, want context.Canceled", err)
	}
	if last := tbl.Parts[pinnedParts-1]; last.MemBytes() != 0 {
		t.Fatalf("the last partition was faulted in after the cancel")
	}
	assertUnpinned(t, "cancel", tbl, res)
}
