package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"seabed/internal/client"
	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/fleet"
	"seabed/internal/planner"
	"seabed/internal/server"
	"seabed/internal/store"
	"seabed/internal/translate"
)

const (
	numDaemons    = 3
	numReplicas   = 2
	daemonWorkers = 4
	proxyParts    = 24
)

var masterSecret = []byte("fleet-benchmark-master-secret-01")

// daemon is one seabed-server of the fleet: a server.Server on loopback TCP
// over a durable.Store, configured as cmd/seabed-server configures itself by
// default (fsync before every append acknowledgement).
type daemon struct {
	addr  string
	dir   string
	srv   *server.Server
	store *durable.Store
	done  chan error
	// stopped makes stop idempotent: a failed restart leaves a stopped
	// daemon in the rig, and closing the rig stops every daemon.
	stopped bool
}

// startDaemon opens (or recovers) dir and serves it on addr; "127.0.0.1:0"
// picks a free port. maxResident is the store's residency budget, 0 for none.
func startDaemon(addr, dir string, index int, maxResident int64) (*daemon, error) {
	srv := server.New(engine.NewCluster(engine.Config{Workers: daemonWorkers}))
	srv.ShardIndex, srv.ShardCount = index, numDaemons
	st, err := durable.Open(durable.Options{
		Dir: dir, Fsync: durable.FsyncAlways, Metrics: srv.Metrics(), MaxResidentBytes: maxResident,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon %d: %w", index, err)
	}
	srv.UseDurable(st)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		st.Close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("daemon %d: %w", index, err)
	}
	d := &daemon{addr: ln.Addr().String(), dir: dir, srv: srv, store: st, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	return d, nil
}

// stop closes the server, waits for its accept loop and connection
// goroutines, then closes the store.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	err := d.srv.Close()
	if serr := <-d.done; err == nil {
		err = serr
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// rig is the system under test: three durable daemons, the fleet coordinator
// dialed to them, and the trusted proxy that drives the fleet.
type rig struct {
	dir     string
	daemons []*daemon
	fleet   *fleet.Cluster
	proxy   *client.Proxy
}

// newRig starts the daemons on fresh data dirs under dir and dials the fleet
// with R=2 and hedging off, so the work per query is deterministic.
func newRig(dir string) (*rig, error) {
	r := &rig{dir: dir}
	addrs := make([]string, numDaemons)
	for i := 0; i < numDaemons; i++ {
		d, err := startDaemon("127.0.0.1:0", filepath.Join(dir, fmt.Sprintf("d%d", i)), i, 0)
		if err != nil {
			r.close() //nolint:errcheck // already failing
			return nil, err
		}
		r.daemons = append(r.daemons, d)
		addrs[i] = d.addr
	}
	fc, err := fleet.Dial(addrs, fleet.Options{Replicas: numReplicas, EpochPath: filepath.Join(dir, "epoch.json")})
	if err != nil {
		r.close() //nolint:errcheck // already failing
		return nil, err
	}
	r.fleet = fc
	r.proxy, err = newProxy(fc)
	if err != nil {
		r.close() //nolint:errcheck // already failing
		return nil, err
	}
	return r, nil
}

// newProxy creates a proxy over backend with both tables planned from exactly
// the query shapes the workloads run.
func newProxy(backend client.ClusterBackend) (*client.Proxy, error) {
	p, err := client.NewProxy(masterSecret, backend)
	if err != nil {
		return nil, err
	}
	p.Parts = proxyParts
	if _, err := p.CreatePlan(evSchema, evSamples(), planner.Options{}); err != nil {
		return nil, err
	}
	if _, err := p.CreatePlan(usersSchema, []string{shapeByName("join_gb").sql}, planner.Options{}); err != nil {
		return nil, err
	}
	return p, nil
}

// upload encrypts and registers both tables under mode.
func upload(ctx context.Context, p *client.Proxy, ev, users *store.Table, mode translate.Mode) error {
	if err := p.Upload(ctx, "ev", ev, mode); err != nil {
		return err
	}
	return p.Upload(ctx, "users", users, mode)
}

// restartDaemons stops every daemon and reopens it on the same address and
// data dir with a residency budget. The fleet coordinator and the proxy stay
// as they are: their pooled sockets died with the daemons and redial.
func (r *rig) restartDaemons(maxResident int64) error {
	for i, d := range r.daemons {
		if err := d.stop(); err != nil {
			return fmt.Errorf("stop daemon %d: %w", i, err)
		}
		nd, err := startDaemon(d.addr, d.dir, i, maxResident)
		if err != nil {
			return err
		}
		r.daemons[i] = nd
	}
	return nil
}

// close stops everything the rig started and removes its directory.
func (r *rig) close() error {
	var errs []error
	if r.fleet != nil {
		errs = append(errs, r.fleet.Close())
	}
	for _, d := range r.daemons {
		errs = append(errs, d.stop())
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}

// storedBytes sums the bytes under every daemon's data dir: segments and WAL,
// both replicas of every range.
func (r *rig) storedBytes() (int64, error) {
	var total int64
	for _, d := range r.daemons {
		n, err := fileBytes(d.dir, "")
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
