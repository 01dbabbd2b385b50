package fleet

import (
	"context"
	"errors"
	"fmt"

	"seabed/internal/engine"
)

// HealError is Heal's refusal of one table of the daemon it heals: pulling
// Ref from the daemon at Source failed, or what the healed daemon then lists
// for Ref does not cover the envelope the placement records. The daemon
// stays down.
type HealError struct {
	// Daemon is the index of the daemon being healed.
	Daemon int
	// Source is the address Ref came from: the replica it was pulled from,
	// or the healed daemon's own for a table it already served.
	Source string
	// Ref is the refused table's ref.
	Ref string
	// Err is why it was refused.
	Err error
}

// Error names the daemon, the ref and the source.
func (e *HealError) Error() string {
	return fmt.Sprintf("fleet: heal daemon %d: %q from %s: %v", e.Daemon, e.Ref, e.Source, e.Err)
}

// Unwrap returns why the table was refused.
func (e *HealError) Unwrap() error { return e.Err }

// Heal rebuilds daemon i from its replica neighbors and returns it to
// service. The daemon must be reachable again (restarted, possibly on an
// empty disk); Heal inventories what it still serves, and for every range it
// should host but does not — plus every missing #all join broadcast — orders
// it to pull the table daemon-to-daemon from a live replica over the wire's
// segment-shipping frames; the daemon checks the images it fetches against
// its source's inventory entry for the table. Tables the daemon still serves (a durable daemon that
// recovered its own disk) are left untouched. The healed daemon's envelopes
// must then cover the placement's, range by range (checkHealed); only then
// is it marked up: queries route to it again and appends resume. A refusal
// is a *HealError.
func (c *Cluster) Heal(ctx context.Context, i int) error {
	if i < 0 || i >= len(c.daemons) {
		return fmt.Errorf("fleet: no daemon %d in a fleet of %d", i, len(c.daemons))
	}

	// Inventory what the daemon already serves; this also proves it is
	// reachable before any pull is ordered.
	has, err := c.envelopes(ctx, i)
	if err != nil {
		return fmt.Errorf("fleet: heal daemon %d (%s): it is not answering — restart it first: %w", i, c.addrs[i], err)
	}

	c.mu.RLock()
	pulls := make(map[string]string) // ref → source address
	for base, st := range c.tables {
		for _, k := range c.hostedRanges(i) {
			ref := rangeRef(base, k)
			if _, ok := has[ref]; ok {
				continue
			}
			live := c.liveReplicas(k, map[int]bool{i: true})
			if len(live) == 0 {
				c.mu.RUnlock()
				return fmt.Errorf("fleet: heal daemon %d: range %d of %q has no live replica to pull from", i, k, base)
			}
			pulls[ref] = c.addrs[live[0]]
		}
		if _, ok := has[base+fullSuffix]; st.allShipped && !ok {
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
			pulls[base+fullSuffix] = c.addrs[src]
		}
	}
	c.mu.RUnlock()

	for ref, from := range pulls {
		if err := c.daemons[i].PullTable(ctx, ref, from); err != nil {
			return &HealError{Daemon: i, Source: from, Ref: ref, Err: err}
		}
		c.log("healed table", "daemon", i, "ref", ref, "from", from)
	}
	if err := c.checkHealed(ctx, i, pulls); err != nil {
		return err
	}

	if c.down[i].CompareAndSwap(true, false) {
		c.log("daemon healed and marked up", "daemon", i, "addr", c.addrs[i], "pulled", len(pulls))
	} else if len(pulls) > 0 {
		c.log("daemon healed", "daemon", i, "addr", c.addrs[i], "pulled", len(pulls))
	}
	return nil
}

// envelopes reads daemon i's tables in one all-tables listing: ref →
// identifier envelope.
func (c *Cluster) envelopes(ctx context.Context, i int) (map[string]engine.IDRange, error) {
	ms, err := c.daemons[i].TableManifests(ctx)
	if err != nil {
		return nil, err
	}
	envs := make(map[string]engine.IDRange, len(ms))
	for _, m := range ms {
		envs[m.Ref] = engine.IDRange{Lo: m.StartID, Hi: m.EndID}
	}
	return envs, nil
}

// checkHealed compares daemon i's envelopes, read after its pulls, with the
// placement's for every range it hosts. A range must list the placement's
// first identifier and reach at least its last; it may run past the last,
// because an append that failed part-way leaves its rows on the replicas
// that applied it, unrecorded until the retried append replays onto them. A
// source that lied is refused with a *HealError naming it (pulls maps ref →
// source); so is a table the daemon kept but that lacks acknowledged rows —
// a fresh-target install cannot replace it, so the daemon must restart on
// an empty directory to be healed.
func (c *Cluster) checkHealed(ctx context.Context, i int, pulls map[string]string) error {
	listed, err := c.envelopes(ctx, i)
	if err != nil {
		return fmt.Errorf("fleet: heal daemon %d (%s): inventory after pulls: %w", i, c.addrs[i], err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for base, st := range c.tables {
		for _, k := range c.hostedRanges(i) {
			ref, want := rangeRef(base, k), st.ranges[k]
			env, ok := listed[ref]
			if ok && (want.Hi < want.Lo || env.Lo == want.Lo && env.Hi >= want.Hi) {
				continue
			}
			err := fmt.Errorf("daemon lists envelope %v, placement records %v", env, want)
			if !ok {
				err = errors.New("daemon does not list it")
			}
			src, pulled := pulls[ref]
			if !pulled {
				src = c.addrs[i]
				err = fmt.Errorf("%w; the daemon kept this table, so restart it on an empty directory to re-pull it", err)
			}
			return &HealError{Daemon: i, Source: src, Ref: ref, Err: err}
		}
	}
	return nil
}
