package fleet

import (
	"context"
	"fmt"
)

// Heal rebuilds daemon i from its replica neighbors and returns it to
// service. The daemon must be reachable again (restarted, possibly on an
// empty disk); Heal inventories what it still serves, and for every range it
// should host but does not — plus every missing #all join broadcast — orders
// it to pull the table daemon-to-daemon from a live replica over the wire's
// segment-shipping frames, CRC-verified end to end. Tables the daemon still
// serves (a durable daemon that recovered its own disk) are left untouched.
// Once every hosted table is present the daemon is marked up: queries route
// to it again and appends resume.
func (c *Cluster) Heal(ctx context.Context, i int) error {
	if i < 0 || i >= len(c.daemons) {
		return fmt.Errorf("fleet: no daemon %d in a fleet of %d", i, len(c.daemons))
	}

	// Inventory what the daemon already serves; this also proves it is
	// reachable before any pull is ordered.
	ms, err := c.daemons[i].TableManifests(ctx, "")
	if err != nil {
		return fmt.Errorf("fleet: heal daemon %d (%s): it is not answering — restart it first: %w", i, c.addrs[i], err)
	}
	has := make(map[string]bool, len(ms))
	for _, m := range ms {
		has[m.Ref] = true
	}

	c.mu.RLock()
	type pull struct{ ref, from string }
	var pulls []pull
	for base, st := range c.tables {
		for _, k := range c.hostedRanges(i) {
			ref := rangeRef(base, k)
			if has[ref] {
				continue
			}
			src := -1
			for _, d := range c.replicaSet(k) {
				if d != i && !c.down[d].Load() {
					src = d
					break
				}
			}
			if src < 0 {
				c.mu.RUnlock()
				return fmt.Errorf("fleet: heal daemon %d: range %d of %q has no live replica to pull from", i, k, base)
			}
			pulls = append(pulls, pull{ref, c.addrs[src]})
		}
		if st.allShipped && !has[base+fullSuffix] {
			src := -1
			for d := range c.daemons {
				if d != i && !c.down[d].Load() {
					src = d
					break
				}
			}
			if src < 0 {
				c.mu.RUnlock()
				return fmt.Errorf("fleet: heal daemon %d: join broadcast %q has no live daemon to pull from", i, base)
			}
			pulls = append(pulls, pull{base + fullSuffix, c.addrs[src]})
		}
	}
	c.mu.RUnlock()

	for _, p := range pulls {
		if err := c.daemons[i].PullTable(ctx, p.ref, p.from); err != nil {
			return fmt.Errorf("fleet: heal daemon %d: pull %q from %s: %w", i, p.ref, p.from, err)
		}
		c.log("healed table", "daemon", i, "ref", p.ref, "from", p.from)
	}

	if c.down[i].CompareAndSwap(true, false) {
		c.log("daemon healed and marked up", "daemon", i, "addr", c.addrs[i], "pulled", len(pulls))
	} else if len(pulls) > 0 {
		c.log("daemon healed", "daemon", i, "addr", c.addrs[i], "pulled", len(pulls))
	}
	return nil
}
