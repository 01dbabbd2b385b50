package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"seabed/internal/idlist"
	"seabed/internal/store"
)

// GroupCols is aggregation output as one column set: the form the reducers
// write (gatherGroups), the result frame carries extent by extent
// (internal/wire), the coordinator's merge reads as its input and
// client.Decrypt walks. Group g's values sit at index g of every column; a
// query without GROUP BY yields one group with KeyKind store.U64 and key 0.
// Beside the columns sits the identifier section its ASHE sums share (IDs,
// ids.go). Columns decoded from a result frame alias the frame, so they are
// read-only.
type GroupCols struct {
	KeyKind store.Kind
	// KeyU64 holds store.U64 keys. Keys of the other kinds share one arena:
	// key g is KeyArena[KeyOff[g]:KeyOff[g+1]].
	KeyU64   []uint64
	KeyOff   []uint64
	KeyArena []byte
	// Suffix is the inflation suffix per group; nil when the plan does not
	// inflate, which reads as suffix −1 everywhere.
	Suffix []int32
	Rows   []uint64
	Aggs   []AggCol
	// IDs is the identifier section, when an aggregate is an ASHE sum: one
	// part as a run writes it, one per input in a merged result.
	IDs []IDPart
	// Codec is the codec the section's lists are encoded with; nil when not
	// known (a frame naming a codec this build lacks).
	Codec idlist.Codec
}

// AggCol is one aggregate's column. Every lane-eligible kind (count, plain
// sum/sum of squares/min/max, ASHE sum) has its value — for an ASHE sum, the
// ciphertext body — in Lane; the remaining kinds (Paillier, OPE extremes,
// medians) keep one AggValue per group in Vals. An ASHE sum's identifiers are
// the columns' section (GroupCols.IDs).
type AggCol struct {
	Kind AggKind
	Lane []uint64
	Vals []AggValue
}

// Len returns the number of groups.
func (c *GroupCols) Len() int {
	if c == nil {
		return 0
	}
	return len(c.Rows)
}

// KeyBytes returns group g's byte or string key, aliasing the arena.
func (c *GroupCols) KeyBytes(g int) []byte {
	return c.KeyArena[c.KeyOff[g]:c.KeyOff[g+1]:c.KeyOff[g+1]]
}

// CheckPlan verifies that the columns have the shape pl asked for — one column
// per aggregate, of its kind, and an identifier section when an aggregate is
// an ASHE sum, whose parts index these groups — so nothing that indexes them by
// the plan's aggregate numbers or a part's tags (the merge, client.Decrypt)
// reads a column an untrusted server left out. A nil set (no groups) passes.
// That every lane holds one word per group is the wire decoder's business, and
// that a part's runs cover its list the section's reader's.
func (c *GroupCols) CheckPlan(pl *Plan) error {
	if c == nil {
		return nil
	}
	if len(c.Aggs) != len(pl.Aggs) {
		return fmt.Errorf("engine: result carries %d aggregates, plan asked for %d (malformed or hostile result)", len(c.Aggs), len(pl.Aggs))
	}
	for i := range c.Aggs {
		if c.Aggs[i].Kind != pl.Aggs[i].Kind {
			return fmt.Errorf("engine: result aggregate %d is %v, plan asked for %v (malformed or hostile result)", i, c.Aggs[i].Kind, pl.Aggs[i].Kind)
		}
		if c.Aggs[i].Kind == AggAsheSum && len(c.IDs) == 0 {
			return fmt.Errorf("engine: result aggregate %d is an ASHE sum without an identifier section (malformed or hostile result)", i)
		}
	}
	return checkParts(c.IDs, c.Len())
}

// newAggCols allocates the columns of n groups for the given aggregates.
func newAggCols(aggs []Agg, n int) []AggCol {
	cols := make([]AggCol, len(aggs))
	for i, a := range aggs {
		col := &cols[i]
		col.Kind = a.Kind
		if LaneKind(a.Kind) {
			col.Lane = make([]uint64, n)
		} else {
			col.Vals = make([]AggValue, n)
		}
	}
	return cols
}

// keys views the key column as the merge's key form.
func (c *GroupCols) keys() groupKeys {
	return groupKeys{kind: c.KeyKind, inflated: c.Suffix != nil,
		u64: c.KeyU64, off: c.KeyOff, arena: c.KeyArena, sfx: c.Suffix}
}

// View returns the result's groups as rows, building them from Cols on the
// first call and caching them in Groups. It is where the engine's key order is
// defined: the columns hold groups in no key order, and the rows come out
// sorted by key (u64 key or key bytes, then suffix). The rows alias the
// columns, except that each ASHE sum's list is rebuilt per group from the
// identifier section and encoded with the columns' codec — the one place a
// group has a list of its own. A section that cannot be rebuilt (no codec, or
// a part that does not decode or cover its list) leaves those lists nil; the
// client, which reads the section itself, refuses such a result.
func (r *Result) View() []Group {
	if r.Groups == nil && r.Cols.Len() > 0 {
		r.Groups = r.Cols.groups()
	}
	return r.Groups
}

// groups builds the row view, in key order: one []Group and one []AggValue
// block.
func (c *GroupCols) groups() []Group {
	n, na := c.Len(), len(c.Aggs)
	out := make([]Group, n)
	vals := make([]AggValue, n*na)
	var strs string // string keys are substrings of one copy of the arena
	if c.KeyKind == store.Str {
		strs = string(c.KeyArena)
	}
	var lists [][]byte
	for ai := range c.Aggs {
		if c.Aggs[ai].Kind == AggAsheSum {
			lists, _ = c.groupLists()
			break
		}
	}
	for i, g := range c.keyOrder() {
		grp := &out[i]
		grp.KeyKind, grp.Suffix, grp.Rows = c.KeyKind, -1, c.Rows[g]
		if c.Suffix != nil {
			grp.Suffix = int(c.Suffix[g])
		}
		switch c.KeyKind {
		case store.U64:
			grp.KeyU64 = c.KeyU64[g]
		case store.Bytes:
			grp.KeyBytes = c.KeyBytes(g)
		default:
			grp.KeyStr = strs[c.KeyOff[g]:c.KeyOff[g+1]]
		}
		grp.Aggs = vals[i*na : (i+1)*na : (i+1)*na]
		for ai := range c.Aggs {
			col, av := &c.Aggs[ai], &grp.Aggs[ai]
			switch {
			case col.Kind == AggAsheSum:
				*av = AggValue{Kind: col.Kind, Ashe: AsheAgg{Body: col.Lane[g]}}
				if lists != nil {
					av.Ashe.Encoded = lists[g]
				}
			case col.Lane != nil:
				*av = AggValue{Kind: col.Kind, U64: col.Lane[g]}
			default:
				*av = col.Vals[g]
			}
		}
	}
	return out
}

// keyOrder returns the groups' indices sorted by key: the u64 key or the key
// bytes, then the suffix.
func (c *GroupCols) keyOrder() []int {
	keys := c.keys()
	order := make([]int, c.Len())
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int {
		if keys.kind == store.U64 {
			return cmp.Or(cmp.Compare(keys.u64[a], keys.u64[b]), cmp.Compare(keys.suffixAt(a), keys.suffixAt(b)))
		}
		return cmp.Or(bytes.Compare(keys.bytesAt(a), keys.bytesAt(b)), cmp.Compare(keys.suffixAt(a), keys.suffixAt(b)))
	})
	return order
}

// taskGroupsFromCols takes one shard's result columns as the merge input
// form — the inverse of gatherGroups for a Partial plan — so the coordinator's
// reduce is the engine's own. Keys, row counts and columns are the shard's
// own; its identifier section is the merge's to renumber, not to read. It
// first refuses what the merge would trip over: a column short of the groups,
// a Paillier sum with no ciphertext, an OPE median whose identifiers or
// companions do not pair with its ciphertexts.
func (pl *Plan) taskGroupsFromCols(c *GroupCols) (*taskGroups, error) {
	if err := c.CheckPlan(pl); err != nil {
		return nil, err
	}
	n := c.Len()
	for ai := range c.Aggs {
		col := &c.Aggs[ai]
		hostile := func(format string, args ...any) error {
			return fmt.Errorf("engine: merge: aggregate %d (%v) %s (malformed or hostile result)", ai, col.Kind, fmt.Sprintf(format, args...))
		}
		switch {
		case col.Kind < AggPlainSum || col.Kind > AggOpeMedian:
			return nil, hostile("is of no known kind")
		case LaneKind(col.Kind) && len(col.Lane) != n, !LaneKind(col.Kind) && len(col.Vals) != n:
			return nil, hostile("holds other than %d groups", n)
		}
		for g := range col.Vals {
			av := &col.Vals[g]
			switch {
			case col.Kind == AggPaillierSum && av.Pail == nil:
				return nil, hostile("of group %d has no Paillier ciphertext", g)
			case col.Kind == AggOpeMedian && (len(av.MedIDs) != len(av.MedOpe) || len(av.MedComp) != 0 && len(av.MedComp) != len(av.MedOpe)):
				return nil, hostile("of group %d collects %d ciphertexts with %d identifiers and %d companions",
					g, len(av.MedOpe), len(av.MedIDs), len(av.MedComp))
			}
		}
	}
	return &taskGroups{keys: c.keys(), rows: c.Rows, cols: c.Aggs}, nil
}
