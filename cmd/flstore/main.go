// Command flstore runs a standalone single-datacenter FLStore node set on
// one machine: N log maintainers, K indexers, and a controller, all served
// over TCP. Clients initialize sessions against the controller address.
//
//	go run ./cmd/flstore -maintainers 3 -indexers 2 -batch 1000 \
//	    -listen 127.0.0.1:7000 -data /tmp/flstore -replication 3 -ack majority
//
// With -replication R > 1 every LId range is hosted by R consecutive
// maintainers (its replica group); -ack picks how many copies must exist
// before an append is acknowledged (one|majority|all). Clients obtain both
// from the controller and replicate transparently; `logctl replicas` shows
// per-group membership, health, and catch-up lag.
//
// Ports: the controller listens on -listen; maintainer i on port+1+i;
// indexer j after the maintainers. With -data, records persist in segment
// files under the directory (one subdirectory per maintainer) and survive
// restarts; without it the log is in memory. Nothing here collects garbage:
// the log only grows, and there is no archive tier to move it to.
//
// Observability: every component registers its metrics in one process-wide
// registry served over HTTP on -metrics (default: controller port + 100) at
// /metrics (Prometheus text), /metrics.json, /healthz, and /debug/pprof.
// The controller additionally answers the stats RPC used by `logctl stats`.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/obsrv"
	"repro/internal/ratelimit"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

func main() {
	var (
		nMaintainers = flag.Int("maintainers", 3, "number of log maintainers")
		nIndexers    = flag.Int("indexers", 1, "number of indexers")
		batch        = flag.Uint64("batch", 1000, "placement round size (LIds per maintainer per round)")
		listen       = flag.String("listen", "127.0.0.1:7000", "controller listen address; components use consecutive ports")
		dataDir      = flag.String("data", "", "directory for persistent segment stores (empty = in-memory)")
		fsyncPolicy  = flag.String("fsync", "group", "segment fsync policy: group (a lone append syncs at once; appends landing during an fsync share the next one), each (one fsync per batch, serialized), never")
		gossipEvery  = flag.Duration("gossip", 5*time.Millisecond, "head-of-log gossip interval")
		metricsAddr  = flag.String("metrics", "", `metrics HTTP listen address ("" = controller port + 100, "off" = disabled)`)
		replication  = flag.Int("replication", 1, "replicas per LId range (1 = unreplicated)")
		ackPolicy    = flag.String("ack", "majority", "replication ack policy: one|majority|all")
		admitRate    = flag.Float64("admit-rate", 0, "per-maintainer admission budget in records/sec (0 = unlimited)")
		admitBurst   = flag.Int("admit-burst", 0, "admission token-bucket burst in records (0 = rate/10, min 64)")
		backlog      = flag.Int("backlog", 0, "per-maintainer ingress backlog bound in records (0 = default 65536, negative = unbounded)")
		traceSample  = flag.Uint("trace-sample", 1024, "record one in N operations into the flight recorder (0 = tracing off)")
		traceSlow    = flag.Duration("trace-slow", 50*time.Millisecond, "force-sample and log operations slower than this (0 = disabled)")
	)
	flag.Parse()
	trace.SetSampling(uint32(*traceSample))
	trace.SetSlowOpThreshold(*traceSlow)
	trace.SetNodeName("flstore@" + *listen)
	if err := run(*nMaintainers, *nIndexers, *batch, *listen, *dataDir, *fsyncPolicy, *gossipEvery, *metricsAddr, *replication, *ackPolicy, *admitRate, *admitBurst, *backlog); err != nil {
		log.Fatal(err)
	}
}

func run(nMaintainers, nIndexers int, batch uint64, listen, dataDir, fsyncPolicy string, gossipEvery time.Duration, metricsAddr string, replication int, ackPolicy string, admitRate float64, admitBurst, backlog int) error {
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return fmt.Errorf("bad -listen: %w", err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("bad -listen port: %w", err)
	}
	addr := func(offset int) string {
		return net.JoinHostPort(host, strconv.Itoa(basePort+offset))
	}

	placement := flstore.Placement{NumMaintainers: nMaintainers, BatchSize: batch}
	if err := placement.Validate(); err != nil {
		return err
	}
	if replication < 1 {
		replication = 1
	}
	layout := replica.Layout{N: nMaintainers, R: replication}
	if err := layout.Validate(); err != nil {
		return err
	}
	ack, err := replica.ParseAckPolicy(ackPolicy)
	if err != nil {
		return err
	}

	reg := metrics.NewRegistry()

	// Indexers first (maintainers post tags to them).
	var indexerAddrs []string
	var indexerAPIs []flstore.IndexerAPI
	var servers []*rpc.Server
	for j := 0; j < nIndexers; j++ {
		ix := flstore.NewIndexer(nil)
		srv := rpc.NewServer()
		srv.EnableMetrics(reg, fmt.Sprintf("indexer-%d", j))
		flstore.ServeIndexer(srv, ix)
		a := addr(1 + nMaintainers + j)
		if _, err := srv.Listen(a); err != nil {
			return fmt.Errorf("indexer %d: %w", j, err)
		}
		servers = append(servers, srv)
		indexerAddrs = append(indexerAddrs, a)
		conn, err := rpc.Dial(a)
		if err != nil {
			return err
		}
		indexerAPIs = append(indexerAPIs, flstore.NewIndexerClient(conn))
		log.Printf("indexer %d listening on %s", j, a)
	}

	// Maintainers.
	var maintainerAddrs []string
	var maintainers []*flstore.Maintainer
	var syncPolicy storage.SyncPolicy
	switch fsyncPolicy {
	case "group":
		syncPolicy = storage.SyncGroupCommit
	case "each":
		syncPolicy = storage.SyncEachBatch
	case "never":
		syncPolicy = storage.SyncNever
	default:
		return fmt.Errorf("bad -fsync %q (want group, each, or never)", fsyncPolicy)
	}
	for i := 0; i < nMaintainers; i++ {
		var st storage.Store
		if dataDir != "" {
			dir := filepath.Join(dataDir, fmt.Sprintf("maintainer-%d", i))
			seg, serr := storage.OpenSegmentStore(dir, storage.SegmentStoreOptions{Sync: syncPolicy})
			if serr != nil {
				return fmt.Errorf("maintainer %d store: %w", i, serr)
			}
			seg.EnableMetrics(reg, metrics.L("maintainer", strconv.Itoa(i)))
			st = seg
		}
		var limiter *ratelimit.Limiter
		if admitRate > 0 {
			b := admitBurst
			if b <= 0 {
				b = int(admitRate / 10)
				if b < 64 {
					b = 64
				}
			}
			limiter = ratelimit.New(admitRate, b)
		}
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
			Index:             i,
			Placement:         placement,
			Store:             st,
			Indexers:          indexerAPIs,
			EnforceHead:       true,
			Replication:       replication,
			Limiter:           limiter,
			MaxIngressBacklog: backlog,
		})
		if err != nil {
			return err
		}
		m.EnableMetrics(reg)
		srv := rpc.NewServer()
		srv.EnableMetrics(reg, fmt.Sprintf("maintainer-%d", i))
		flstore.ServeMaintainer(srv, m)
		a := addr(1 + i)
		if _, err := srv.Listen(a); err != nil {
			return fmt.Errorf("maintainer %d: %w", i, err)
		}
		servers = append(servers, srv)
		maintainers = append(maintainers, m)
		maintainerAddrs = append(maintainerAddrs, a)
		log.Printf("maintainer %d listening on %s (%d records recovered)", i, a, m.Store().Len())
	}

	// Gossip wiring.
	var gossipers []*flstore.Gossiper
	for i, m := range maintainers {
		peers := make([]flstore.MaintainerAPI, nMaintainers)
		for j := 0; j < nMaintainers; j++ {
			if j == i {
				continue
			}
			conn, err := rpc.Dial(maintainerAddrs[j])
			if err != nil {
				return err
			}
			peers[j] = flstore.NewMaintainerClient(conn)
		}
		g := flstore.NewGossiper(m, peers, gossipEvery)
		g.EnableMetrics(reg)
		g.Start()
		gossipers = append(gossipers, g)
	}

	// Controller last: it advertises everything above.
	ctrl, err := flstore.NewController(flstore.Config{
		Placement:       placement,
		MaintainerAddrs: maintainerAddrs,
		IndexerAddrs:    indexerAddrs,
		Replication:     replication,
		AckPolicy:       ack.String(),
	})
	if err != nil {
		return err
	}
	ctrlSrv := rpc.NewServer()
	ctrlSrv.EnableMetrics(reg, "controller")
	flstore.ServeController(ctrlSrv, ctrl)
	flstore.ServeStats(ctrlSrv, reg)
	// Typed admin surface for `logctl epochs` / `logctl grow`: this node
	// set has a fixed member roster and nothing to seal its owners with,
	// so proposals are refused; an orchestrated deployment would serve an
	// flstore.Orchestrator here instead and execute switchovers live.
	flstore.ServeAdmin(ctrlSrv, &flstore.ControllerAdmin{Ctrl: ctrl})
	// Replica status for `logctl replicas`: assembled at request time by
	// polling the in-process maintainers' per-range frontiers.
	flstore.ServeReplicas(ctrlSrv, func() (*replica.ClusterStatus, error) {
		return flstore.BuildClusterStatus(placement, layout, ack, func(mi, ri int) (uint64, error) {
			return maintainers[mi].RangeFrontier(ri)
		}, func(mi, ri int) (uint64, uint64, error) {
			return maintainers[mi].ValidityWatermark(ri)
		}, func(mi, ri int) (uint64, error) {
			return maintainers[mi].DurableWatermark(ri)
		}), nil
	})
	if _, err := ctrlSrv.Listen(listen); err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	servers = append(servers, ctrlSrv)
	log.Printf("controller listening on %s (placement: %d maintainers, batch %d, replication %d, ack %s)",
		listen, nMaintainers, batch, replication, ack)

	// Metrics/health HTTP endpoint.
	var obs *obsrv.Server
	if metricsAddr != "off" {
		if metricsAddr == "" {
			metricsAddr = net.JoinHostPort(host, strconv.Itoa(basePort+100))
		}
		obs = obsrv.New(reg)
		for i, m := range maintainers {
			m := m
			obs.AddCheck(fmt.Sprintf("maintainer-%d", i), func() error {
				_, err := m.Head()
				return err
			})
		}
		gossipBound := 20 * gossipEvery
		obs.AddCheck("gossip", func() error {
			for i, g := range gossipers {
				if age := g.RoundAge(); age > gossipBound {
					return fmt.Errorf("gossiper %d stalled: last round %s ago", i, age)
				}
			}
			return nil
		})
		a, err := obs.Start(metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		log.Printf("metrics on http://%s/metrics (healthz, pprof alongside)", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	if obs != nil {
		obs.Close()
	}
	for _, g := range gossipers {
		g.Stop()
	}
	for _, s := range servers {
		s.Close()
	}
	for _, m := range maintainers {
		if err := m.Store().Close(); err != nil {
			log.Printf("closing store: %v", err)
		}
	}
	return nil
}
