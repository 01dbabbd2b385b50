package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"seabed/internal/server"
)

// healthProbeTimeout bounds each per-daemon health probe (wire inventory and
// optional HTTP /stats poll) so one hung daemon cannot stall the rollup.
const healthProbeTimeout = 2 * time.Second

// maxStatsBody bounds the /stats body the rollup reads from a daemon. The
// daemon is untrusted; a snapshot of thousands of tables is well under it.
const maxStatsBody = 4 << 20

// DaemonHealth is one daemon's slice of a FleetHealth snapshot.
type DaemonHealth struct {
	// Index and Addr identify the daemon in placement order.
	Index int    `json:"index"`
	Addr  string `json:"addr"`
	// Live reports that the daemon answered this poll's wire probe. Down is
	// the coordinator's sticky unavailability mark (set by a failed query,
	// cleared by Heal) — a daemon can be Live but still Down until healed.
	Live bool `json:"live"`
	Down bool `json:"down"`
	// Err is the probe failure, "" when Live.
	Err string `json:"err,omitempty"`
	// Ranges lists the identifier-range indices the placement assigns here.
	Ranges []int `json:"ranges"`
	// Tables counts the refs the daemon's inventory answered with.
	Tables int `json:"tables"`
	// Stats is the daemon's own /stats snapshot; nil when the fleet was
	// dialed without debug addresses or the HTTP poll failed.
	Stats *server.Stats `json:"stats,omitempty"`
}

// RangeHealth reports one table range whose replicas disagree — the
// replica-staleness signal that should be empty except between a crash and
// the Heal that repairs it.
type RangeHealth struct {
	// Ref and Range name the table and identifier-range index.
	Ref   string `json:"ref"`
	Range int    `json:"range"`
	// MaxEndID is the freshest replica's last row identifier; Lag maps each
	// replica daemon index to how many identifiers it trails by (only
	// daemons that trail or failed to answer appear; a failed probe reports
	// the full span).
	MaxEndID uint64         `json:"max_end_id"`
	Lag      map[int]uint64 `json:"lag"`
}

// FleetHealth is the coordinator's one-call health rollup: liveness and
// per-daemon stats, the fleet's mitigation counters, and any ranges whose
// replicas have diverged.
type FleetHealth struct {
	// Daemons holds one entry per daemon, in placement order.
	Daemons []DaemonHealth `json:"daemons"`
	// Live counts daemons that answered the poll.
	Live int `json:"live"`
	// Replicas and Epoch echo the placement (R and the epoch file counter).
	Replicas int    `json:"replicas"`
	Epoch    uint64 `json:"epoch"`
	// Hedges and Failovers are the coordinator's lifetime mitigation
	// counters (Stats.Hedges / Stats.Failovers).
	Hedges    uint64 `json:"hedges"`
	Failovers uint64 `json:"failovers"`
	// StaleRanges lists replica disagreements; empty on a healthy fleet.
	StaleRanges []RangeHealth `json:"stale_ranges,omitempty"`
}

// Health polls every daemon — a wire-level table inventory for liveness and
// replica agreement, plus the daemon's HTTP /stats snapshot when the fleet
// was dialed with Options.DebugAddrs — and rolls the answers into one
// FleetHealth. Daemons are polled concurrently under a per-probe timeout, so
// the call returns in bounded time even with daemons hung or gone.
func (c *Cluster) Health(ctx context.Context) FleetHealth {
	n := len(c.daemons)
	h := FleetHealth{Daemons: make([]DaemonHealth, n), Replicas: c.replicas}
	st := c.Stats()
	h.Epoch, h.Hedges, h.Failovers = st.Epoch, st.Hedges, st.Failovers

	// endIDs[d] maps each ref daemon d answered for to that replica's EndID.
	endIDs := make([]map[string]uint64, n)
	var wg sync.WaitGroup
	for i := range c.daemons {
		h.Daemons[i] = DaemonHealth{
			Index:  i,
			Addr:   c.addrs[i],
			Down:   c.down[i].Load(),
			Ranges: c.hostedRanges(i),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, healthProbeTimeout)
			defer cancel()
			d := &h.Daemons[i]
			manifests, err := c.daemons[i].TableManifests(pctx)
			if err != nil {
				d.Err = err.Error()
				return
			}
			d.Live = true
			d.Tables = len(manifests)
			ids := make(map[string]uint64, len(manifests))
			for _, m := range manifests {
				if m.EndID >= m.StartID {
					ids[m.Ref] = m.EndID
				} else {
					ids[m.Ref] = 0 // empty range: comparable floor
				}
			}
			endIDs[i] = ids
			if len(c.opts.DebugAddrs) == len(c.daemons) && c.opts.DebugAddrs[i] != "" {
				d.Stats = pollStats(pctx, c.opts.DebugAddrs[i])
			}
		}(i)
	}
	wg.Wait()
	for _, d := range h.Daemons {
		if d.Live {
			h.Live++
		}
	}
	h.StaleRanges = c.staleRanges(endIDs)
	return h
}

// staleRanges compares each range's replicas by last row identifier and
// reports the ones that disagree. endIDs[d] is daemon d's ref → EndID
// inventory (nil when its probe failed — those daemons report the full span
// as lag rather than masking a divergence).
func (c *Cluster) staleRanges(endIDs []map[string]uint64) []RangeHealth {
	c.mu.RLock()
	refs := make(map[string]int, len(c.tables))
	for ref, st := range c.tables {
		refs[ref] = len(st.ranges)
	}
	c.mu.RUnlock()
	var stale []RangeHealth
	for ref, ranges := range refs {
		for k := 0; k < ranges; k++ {
			rref := rangeRef(ref, k)
			set := c.replicaSet(k)
			var max uint64
			have := false
			for _, d := range set {
				if ids := endIDs[d]; ids != nil {
					if id, ok := ids[rref]; ok {
						have = true
						if id > max {
							max = id
						}
					}
				}
			}
			if !have {
				continue // no replica answered with this range: nothing to compare
			}
			lag := make(map[int]uint64)
			for _, d := range set {
				ids := endIDs[d]
				if ids == nil {
					lag[d] = max // probe failed: assume the full span behind
					continue
				}
				id, ok := ids[rref]
				if !ok {
					lag[d] = max
					continue
				}
				if id < max {
					lag[d] = max - id
				}
			}
			if len(lag) > 0 {
				stale = append(stale, RangeHealth{Ref: ref, Range: k, MaxEndID: max, Lag: lag})
			}
		}
	}
	return stale
}

// pollStats fetches and decodes one daemon's /stats snapshot; nil on any
// failure, a malformed body or one over maxStatsBody included (the rollup
// reports liveness from the wire probe, not from here).
func pollStats(ctx context.Context, debugAddr string) *server.Stats {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+debugAddr+"/stats", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxStatsBody+1))
	if err != nil || len(body) > maxStatsBody {
		return nil
	}
	var st server.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return nil
	}
	return &st
}

// ServeHealth serves a fresh Health snapshot as indented JSON — the
// /debug/fleet endpoint of the proxy's debug plane, mounted by interface
// assertion so the client package never imports this one.
func (c *Cluster) ServeHealth(w http.ResponseWriter, r *http.Request) {
	h := c.Health(r.Context())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h) //nolint:errcheck // best-effort debug endpoint
}
