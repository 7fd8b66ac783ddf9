package cluster

import (
	"time"

	"repro/internal/flstore"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// RigSpec describes one FLStore deployment. A field is here because two
// experiments need different values for it; what a single experiment
// would set stays a constant in that experiment.
type RigSpec struct {
	Maintainers int
	// Replication is the copies per range; <= 1 is unreplicated.
	Replication int
	// Round is the placement round size (LIds per maintainer turn).
	Round uint64
	Ack   replica.AckPolicy
	// TCP serves every member on a loopback listener with one pipelined
	// connection each; otherwise handles are in-process LocalClients (same
	// dispatch and codec, no sockets).
	TCP bool
	// Gossip > 0 runs head-of-log gossip among the members at this interval.
	Gossip time.Duration
	// Member finishes member i's config (store, capacity limiter) before
	// the maintainer is built. A store it sets is closed by Rig.Close.
	Member func(i int, cfg *flstore.MaintainerConfig) error
	// Serve is handed member i once built, before it is served or gossips,
	// and returns what to serve: a pacing wrapper, or m itself once
	// instrumented.
	Serve func(i int, m *flstore.Maintainer) flstore.MaintainerAPI
	// Link wraps the client side of member i's connection (fault injection).
	Link func(i int, c rpc.Client) rpc.Client
}

// Rig is a running deployment: the maintainers, an RPC handle to each, and
// a client wired over those handles.
type Rig struct {
	Placement   flstore.Placement
	Maintainers []*flstore.Maintainer
	Handles     []flstore.MaintainerAPI
	// Addrs are the members' listen addresses (TCP rigs only).
	Addrs  []string
	Client *flstore.Client

	closers []func() error
}

// NewRig stands the deployment up. On error everything already opened is
// released before returning.
func NewRig(spec RigSpec) (*Rig, error) {
	rig := &Rig{Placement: flstore.Placement{NumMaintainers: spec.Maintainers, BatchSize: spec.Round}}
	if err := rig.start(spec); err != nil {
		rig.Close()
		return nil, err
	}
	return rig, nil
}

func (r *Rig) start(spec RigSpec) error {
	for i := 0; i < spec.Maintainers; i++ {
		cfg := flstore.MaintainerConfig{Index: i, Placement: r.Placement, Replication: spec.Replication}
		if spec.Member != nil {
			if err := spec.Member(i, &cfg); err != nil {
				return err
			}
			if cfg.Store != nil {
				r.closers = append(r.closers, cfg.Store.Close)
			}
		}
		m, err := flstore.NewMaintainer(cfg)
		if err != nil {
			return err
		}
		var served flstore.MaintainerAPI = m
		if spec.Serve != nil {
			served = spec.Serve(i, m)
		}
		srv := rpc.NewServer()
		flstore.ServeMaintainer(srv, served)
		r.closers = append(r.closers, srv.Close)
		var conn rpc.Client = rpc.NewLocalClient(srv)
		if spec.TCP {
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			r.Addrs = append(r.Addrs, addr.String())
			if conn, err = rpc.Dial(addr.String()); err != nil {
				return err
			}
		}
		r.closers = append(r.closers, conn.Close)
		if spec.Link != nil {
			conn = spec.Link(i, conn)
		}
		r.Maintainers = append(r.Maintainers, m)
		r.Handles = append(r.Handles, flstore.NewMaintainerClient(conn))
	}
	if spec.Gossip > 0 {
		for i, m := range r.Maintainers {
			peers := make([]flstore.MaintainerAPI, len(r.Maintainers))
			for j, pm := range r.Maintainers {
				if j != i {
					peers[j] = pm
				}
			}
			g := flstore.NewGossiper(m, peers, spec.Gossip)
			g.Start()
			r.closers = append(r.closers, func() error { g.Stop(); return nil })
		}
	}
	var err error
	r.Client, err = flstore.NewReplicatedDirectClient(r.Placement, r.Handles, nil, spec.Replication, spec.Ack)
	return err
}

// Close releases everything the rig opened, newest first (gossipers, then
// per member its connection, server and store), and returns the first
// error. Closing again is a no-op.
func (r *Rig) Close() error {
	var first error
	for i := len(r.closers) - 1; i >= 0; i-- {
		if err := r.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}
