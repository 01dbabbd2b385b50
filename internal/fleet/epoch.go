package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"seabed/internal/engine"
)

// epochFormat versions the epoch file's JSON layout.
const epochFormat = 1

// epochFile is the coordinator's durable placement: everything Dial needs to
// route queries and order heals without re-uploading anything. It is
// committed by atomic rename, like the storage engine's MANIFEST, so a crash
// mid-write leaves the previous epoch intact.
type epochFile struct {
	// Format is the file layout version (epochFormat).
	Format int `json:"format"`
	// Epoch counts commits, monotonically.
	Epoch uint64 `json:"epoch"`
	// Replicas is the fleet's replication factor R.
	Replicas int `json:"replicas"`
	// Addrs are the daemon addresses, in placement order.
	Addrs []string `json:"addrs"`
	// Tables maps each registered base ref to its placement.
	Tables map[string]epochTable `json:"tables"`
}

// epochTable is one table's persisted placement.
type epochTable struct {
	// Ranges holds each range's identifier envelope, index matching the
	// range number (hi < lo encodes an empty range).
	Ranges []epochRange `json:"ranges"`
	// AllShipped records that the table's full contents live on every daemon
	// under the #all ref (join broadcast).
	AllShipped bool `json:"all_shipped,omitempty"`
}

// epochRange is one identifier envelope.
type epochRange struct {
	// Lo is the first row identifier of the envelope.
	Lo uint64 `json:"lo"`
	// Hi is the last row identifier of the envelope.
	Hi uint64 `json:"hi"`
}

// loadEpoch loads the epoch file when Options.EpochPath names an existing
// one, populating the coordinator's placement. It returns false (no error)
// when no path is configured or the file does not exist yet.
func (c *Cluster) loadEpoch() (bool, error) {
	if c.opts.EpochPath == "" {
		return false, nil
	}
	data, err := os.ReadFile(c.opts.EpochPath)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("fleet: read epoch file: %w", err)
	}
	f, err := parseEpoch(data)
	if err != nil {
		return false, fmt.Errorf("fleet: epoch file %s: %w", c.opts.EpochPath, err)
	}
	if f.Replicas != c.replicas {
		return false, fmt.Errorf("fleet: epoch file records %d replicas, dialed with %d — remove %s to re-adopt", f.Replicas, c.replicas, c.opts.EpochPath)
	}
	if len(f.Addrs) != len(c.addrs) {
		return false, fmt.Errorf("fleet: epoch file records %d daemons, dialed %d — remove %s to re-adopt", len(f.Addrs), len(c.addrs), c.opts.EpochPath)
	}
	for i := range f.Addrs {
		if f.Addrs[i] != c.addrs[i] {
			return false, fmt.Errorf("fleet: epoch file daemon %d is %s, dialed %s — remove %s to re-adopt", i, f.Addrs[i], c.addrs[i], c.opts.EpochPath)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = f.Epoch
	for ref, et := range f.Tables {
		st := &tableState{ranges: make([]engine.IDRange, len(et.Ranges)), allShipped: et.AllShipped}
		for k, r := range et.Ranges {
			st.ranges[k] = engine.IDRange{Lo: r.Lo, Hi: r.Hi}
		}
		c.tables[ref] = st
	}
	return true, nil
}

// parseEpoch parses an epoch file and checks what it can without a fleet: its
// format, and that every table places one range per recorded daemon. The
// caller checks the file against the fleet it dialed.
func parseEpoch(data []byte) (*epochFile, error) {
	var f epochFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if f.Format != epochFormat {
		return nil, fmt.Errorf("format %d, this build reads %d", f.Format, epochFormat)
	}
	for ref, et := range f.Tables {
		if len(et.Ranges) != len(f.Addrs) {
			return nil, fmt.Errorf("table %q has %d ranges for %d daemons", ref, len(et.Ranges), len(f.Addrs))
		}
	}
	return &f, nil
}

// persistEpoch commits the coordinator's current placement to the epoch
// file: marshal, write a temp file, fsync, rename over the path, fsync the
// directory. A nil EpochPath makes it a no-op (placement lives only in
// memory, like the plain sharded cluster).
func (c *Cluster) persistEpoch() error {
	if c.opts.EpochPath == "" {
		return nil
	}
	c.mu.Lock()
	c.epoch++
	f := epochFile{
		Format:   epochFormat,
		Epoch:    c.epoch,
		Replicas: c.replicas,
		Addrs:    c.addrs,
		Tables:   make(map[string]epochTable, len(c.tables)),
	}
	for ref, st := range c.tables {
		et := epochTable{Ranges: make([]epochRange, len(st.ranges)), AllShipped: st.allShipped}
		for k, r := range st.ranges {
			et.Ranges[k] = epochRange{Lo: r.Lo, Hi: r.Hi}
		}
		f.Tables[ref] = et
	}
	c.mu.Unlock()

	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: marshal epoch: %w", err)
	}
	tmp := c.opts.EpochPath + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("fleet: write epoch: %w", err)
	}
	if _, err := tf.Write(append(data, '\n')); err != nil {
		tf.Close()
		return fmt.Errorf("fleet: write epoch: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("fleet: sync epoch: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("fleet: close epoch: %w", err)
	}
	if err := os.Rename(tmp, c.opts.EpochPath); err != nil {
		return fmt.Errorf("fleet: commit epoch: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(c.opts.EpochPath)); err == nil {
		dir.Sync() //nolint:errcheck // the rename itself is the commit point
		dir.Close()
	}
	return nil
}

// splitRangeRef parses a per-range ref ("sales@Seabed#r2") into its base ref
// and range number, or a #all broadcast ref (all = true). Refs with neither
// suffix return ok = false.
func splitRangeRef(ref string) (base string, k int, all, ok bool) {
	i := strings.LastIndex(ref, "#")
	if i < 0 {
		return "", 0, false, false
	}
	base, tag := ref[:i], ref[i+1:]
	if tag == "all" {
		return base, 0, true, true
	}
	if !strings.HasPrefix(tag, "r") {
		return "", 0, false, false
	}
	n, err := strconv.Atoi(tag[1:])
	if err != nil || n < 0 {
		return "", 0, false, false
	}
	return base, n, false, true
}

// adopt recovers placement from the daemons themselves: each daemon's table
// inventory (segment lists) is parsed for per-range refs, and every range's
// envelope must agree across the replicas serving it. Refs that are neither
// per-range nor #all (an older single-daemon proxy's) are rejected, since
// the fleet cannot know their placement. Fresh daemons adopt an empty one.
func (c *Cluster) adopt(ctx context.Context) error {
	type seenRange struct {
		env    engine.IDRange
		daemon int
	}
	ranges := make(map[string]map[int]seenRange)
	allShipped := make(map[string]bool)
	for d := range c.daemons {
		ms, err := c.daemons[d].TableManifests(ctx)
		if err != nil {
			return fmt.Errorf("fleet: adopt: inventory daemon %d (%s): %w", d, c.addrs[d], err)
		}
		for _, m := range ms {
			base, k, all, ok := splitRangeRef(m.Ref)
			if !ok {
				return fmt.Errorf("fleet: adopt: daemon %d serves %q, which is not a fleet per-range ref — this daemon holds non-fleet tables; restart it over an empty data directory and re-register them through the fleet", d, m.Ref)
			}
			if all {
				allShipped[base] = true
				continue
			}
			if k >= len(c.daemons) {
				return fmt.Errorf("fleet: adopt: daemon %d serves range %d of %q, but the fleet has only %d ranges — was it dialed with fewer daemons than before?", d, k, base, len(c.daemons))
			}
			hosted := false
			for _, rd := range c.replicaSet(k) {
				if rd == d {
					hosted = true
					break
				}
			}
			if !hosted {
				return fmt.Errorf("fleet: adopt: daemon %d serves range %d of %q, but placement assigns that range to daemons %v — was the address list reordered?", d, k, base, c.replicaSet(k))
			}
			env := engine.IDRange{Lo: m.StartID, Hi: m.EndID}
			if prev, dup := ranges[base][k]; dup {
				if prev.env != env {
					return fmt.Errorf("fleet: adopt: range %d of %q diverges between daemon %d (%v) and daemon %d (%v) — heal the stale replica before adopting",
						k, base, prev.daemon, prev.env, d, env)
				}
				continue
			}
			if ranges[base] == nil {
				ranges[base] = make(map[int]seenRange)
			}
			ranges[base][k] = seenRange{env: env, daemon: d}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for base, ks := range ranges {
		st := &tableState{ranges: make([]engine.IDRange, len(c.daemons)), allShipped: allShipped[base]}
		for k := range st.ranges {
			st.ranges[k] = engine.IDRange{Lo: 1, Hi: 0} // empty until seen
			if sr, ok := ks[k]; ok {
				st.ranges[k] = sr.env
			}
		}
		c.tables[base] = st
		delete(allShipped, base)
	}
	for base := range allShipped { // #all seen without any per-range refs
		st := &tableState{ranges: make([]engine.IDRange, len(c.daemons)), allShipped: true}
		for k := range st.ranges {
			st.ranges[k] = engine.IDRange{Lo: 1, Hi: 0}
		}
		c.tables[base] = st
	}
	if len(c.tables) > 0 {
		c.log("adopted placement from daemons", "tables", len(c.tables), "epoch", c.epoch)
	}
	return nil
}
