package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/flstore"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// The FLStore deployment every log workload runs against: three
// maintainers, every range replicated on all three, majority
// acknowledgement, rounds of eight positions.
const (
	flMaintainers = 3
	flReplication = 3
	// placementRound is the round size every experiment in internal/cluster
	// uses. The shipped default of 1000 would leave two of three ranges a
	// thousand positions short of the head for most of a paced run, which
	// makes tail latency a function of the offered rate and not of the code.
	placementRound = 8
)

type flCluster struct {
	placement flstore.Placement
	dir       string
	sync      storage.SyncPolicy
	stores    []*storage.SegmentStore
	maints    []*flstore.Maintainer
	servers   []*rpc.Server
	conns     []*rpc.TCPClient
	// clients holds one client library instance per actor (generator
	// session or reader). They share the one TCP connection per maintainer.
	clients []*flstore.Client
}

// newFLCluster builds the deployment under dir: a segment store per
// maintainer with the given sync policy, each maintainer behind its own
// rpc.Server on loopback TCP, no limiter, no metrics registry. With a
// recorder, every seam is wrapped.
func newFLCluster(dir string, sync storage.SyncPolicy, actors int, rec *recorder) (*flCluster, error) {
	c := &flCluster{
		placement: flstore.Placement{NumMaintainers: flMaintainers, BatchSize: placementRound},
		dir:       dir, sync: sync,
	}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	for i := 0; i < flMaintainers; i++ {
		seg, err := storage.OpenSegmentStore(c.storeDir(i), storage.SegmentStoreOptions{Sync: sync})
		if err != nil {
			return nil, fmt.Errorf("maintainer %d store: %w", i, err)
		}
		c.stores = append(c.stores, seg)
		var st storage.Store = seg
		if rec != nil {
			st = &storeWrap{seg, newTap(rec, -1, i)}
		}
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
			Index: i, Placement: c.placement, Replication: flReplication, Store: st,
		})
		if err != nil {
			return nil, err
		}
		c.maints = append(c.maints, m)
		srv := rpc.NewServer()
		if rec != nil {
			flstore.ServeMaintainer(srv, &srvWrap{m, newTap(rec, -1, i)})
		} else {
			flstore.ServeMaintainer(srv, m)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
		conn, err := rpc.Dial(addr.String())
		if err != nil {
			return nil, err
		}
		c.conns = append(c.conns, conn)
	}
	for a := 0; a < actors; a++ {
		handles := make([]flstore.MaintainerAPI, flMaintainers)
		for i, conn := range c.conns {
			if rec == nil {
				handles[i] = flstore.NewMaintainerClient(conn)
				continue
			}
			stub := flstore.NewMaintainerClient(&rpcWrap{conn, newTap(rec, a, i)}).(fullMember)
			handles[i] = &memberWrap{stub, newTap(rec, a, i)}
		}
		cl, err := flstore.NewReplicatedDirectClient(c.placement, handles, nil, flReplication, replica.AckMajority)
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	ok = true
	return c, nil
}

func (c *flCluster) storeDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("m%d", i)) }

// close stops clients and servers and closes the stores; the directories
// stay for the reopen check and are removed with the run's work directory.
func (c *flCluster) close() error {
	for _, conn := range c.conns {
		conn.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
	var first error
	for _, st := range c.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.conns, c.servers, c.stores = nil, nil, nil
	return first
}

// diskBytes sums the segment bytes of all three stores.
func (c *flCluster) diskBytes() int64 {
	var total int64
	for _, st := range c.stores {
		_, b := st.DiskStats()
		total += b
	}
	return total
}

func (c *flCluster) fsyncs() uint64 {
	var total uint64
	for _, st := range c.stores {
		total += st.FsyncCount()
	}
	return total
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: removing", dir+":", err)
	}
}
