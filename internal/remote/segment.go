package remote

import (
	"context"
	"fmt"

	"seabed/internal/wire"
)

// Segment shipping RPCs: the client half of daemon-to-daemon
// replication. The fleet coordinator uses them to inventory daemons at
// adoption time and to order a healed daemon to pull a table from a live
// replica; the daemon fetches the table from its peer through a Pool
// (server.pullTable).

// TableManifests asks the daemon to inventory its tables: every table's
// ref, rows and identifier envelope.
func (r *RemoteCluster) TableManifests(ctx context.Context) ([]wire.TableManifest, error) {
	respType, resp, err := r.pool.RoundTrip(ctx, wire.MsgSegmentList, nil)
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgSegmentList {
		return nil, fmt.Errorf("remote: segment list: unexpected %v response", respType)
	}
	return wire.DecodeSegmentList(resp)
}

// PullTable instructs the daemon to pull table ref from the peer daemon at
// from — one exchange of the table's images and its inventory entry — check
// the images against the entry, and install the table. The daemon answers
// once the table is installed and addressable, so a healed daemon is
// queryable when PullTable returns.
func (r *RemoteCluster) PullTable(ctx context.Context, ref, from string) error {
	if from == "" {
		return fmt.Errorf("remote: segment pull of %q needs a source daemon address", ref)
	}
	respType, resp, err := r.pool.RoundTrip(ctx, wire.MsgSegmentFetch, wire.EncodeSegmentFetch(ref, from))
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
