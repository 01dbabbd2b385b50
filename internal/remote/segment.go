package remote

import (
	"context"
	"fmt"

	"seabed/internal/wire"
)

// Segment shipping RPCs: the client half of daemon-to-daemon
// replication. The fleet coordinator uses them to inventory daemons at
// adoption time and to order a healed daemon to pull a table from a live
// replica; a daemon's own pull path reuses the same calls through a
// transient RemoteCluster aimed at its peer.

// TableManifests asks the daemon to inventory its tables for segment
// shipping. A non-empty ref narrows the answer to that table; empty lists
// every table.
func (r *RemoteCluster) TableManifests(ctx context.Context, ref string) ([]wire.TableManifest, error) {
	respType, resp, err := r.pool.RoundTrip(ctx, wire.MsgSegmentList, wire.EncodeSegmentListReq(ref))
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgSegmentList {
		return nil, fmt.Errorf("remote: segment list: unexpected %v response", respType)
	}
	return wire.DecodeSegmentList(resp)
}

// FetchSegment pulls one named segment of ref from the daemon. The returned
// bytes are CRC-verified end to end by the frame decoder.
func (r *RemoteCluster) FetchSegment(ctx context.Context, ref, name string) (wire.SegmentData, error) {
	respType, resp, err := r.pool.RoundTrip(ctx, wire.MsgSegmentFetch, wire.EncodeSegmentFetch(ref, name, ""))
	if err != nil {
		return wire.SegmentData{}, err
	}
	if respType != wire.MsgSegmentData {
		return wire.SegmentData{}, fmt.Errorf("remote: segment fetch %q of %q: unexpected %v response", name, ref, respType)
	}
	return wire.DecodeSegmentData(resp)
}

// PullTable instructs the daemon to pull table ref from the peer daemon at
// from — its listing, then every listed segment — check the segments against
// the listing, and install the table. The daemon answers once the table is
// installed and addressable, so a healed daemon is queryable when PullTable
// returns.
func (r *RemoteCluster) PullTable(ctx context.Context, ref, from string) error {
	if from == "" {
		return fmt.Errorf("remote: segment pull of %q needs a source daemon address", ref)
	}
	respType, resp, err := r.pool.RoundTrip(ctx, wire.MsgSegmentFetch, wire.EncodeSegmentFetch(ref, "", from))
	if err != nil {
		return err
	}
	if respType != wire.MsgOK {
		if respType == wire.MsgError {
			return fmt.Errorf("remote: segment pull of %q from %s: %s", ref, from, wire.DecodeError(resp))
		}
		return fmt.Errorf("remote: segment pull of %q from %s: unexpected %v response", ref, from, respType)
	}
	return nil
}
