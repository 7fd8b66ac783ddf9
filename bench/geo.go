package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// geo_2dc: two Chariots datacenters with the shipped pipeline defaults (one
// batcher, filter, queue, sender and receiver each, in-memory stores) and
// two maintainers, joined over loopback TCP behind an injected one-way
// delay.
const (
	geoWAN         = 10 * time.Millisecond // injected one-way delay, part of every visibility figure
	geoMaintainers = 2
	geoBody        = 128
	geoRate        = 300.0
	geoWarm        = 300
	geoEchoEvery   = 10  // dc1 answers every tenth record it sees with an append of its own
	geoBurst       = 256 // flood: 255 AppendAsync and one Append
	geoActorDC0    = 0
	geoActorEcho   = 1
	geoDrainLimit  = 20 * time.Second
)

var geoTag = []core.Tag{{Key: "bench", Value: "geo"}}

type geoRun struct {
	dcs     [2]*chariots.Datacenter
	servers []*rpc.Server
	conns   []*rpc.TCPClient
	links   []*chariots.LatencyLink
	fill    []byte
	seq     atomic.Uint64 // operation counter of dc0's appender
	hop     *hopLog       // dc0 -> dc1, traced run only
}

func setupGeo(rc *runCtx) (*geoRun, error) {
	g := &geoRun{fill: filler(rc.seed, geoBody)}
	if rc.rec != nil {
		g.hop = &hopLog{rec: rc.rec, spans: rc.rec.lane()}
	}
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()
	addrs := make([]string, 2)
	for i := range g.dcs {
		cfg := chariots.Config{Self: core.DCID(i), NumDCs: 2, Maintainers: geoMaintainers, PlacementBatch: placementRound}
		if rc.rec != nil {
			// The same in-memory stores the datacenter would make itself,
			// wrapped to time their appends.
			for m := 0; m < geoMaintainers; m++ {
				cfg.Stores = append(cfg.Stores, &storeWrap{storage.NewMemStore(), newTap(rc.rec, -1, i)})
			}
		}
		dc, err := chariots.New(cfg)
		if err != nil {
			return nil, err
		}
		g.dcs[i] = dc
		srv := rpc.NewServer()
		chariots.ServeReceiver(srv, dc.Receivers()[0])
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		g.servers = append(g.servers, srv)
		addrs[i] = addr.String()
	}
	for i, dc := range g.dcs {
		peer := 1 - i
		conn, err := rpc.Dial(addrs[peer])
		if err != nil {
			return nil, err
		}
		g.conns = append(g.conns, conn)
		var far chariots.ReceiverAPI = chariots.NewReceiverClient(conn)
		if g.hop != nil && i == 0 {
			far = &deliverWrap{inner: far, log: g.hop}
		}
		link := chariots.NewLatencyLink(far, geoWAN)
		g.links = append(g.links, link)
		var near chariots.ReceiverAPI = link
		if g.hop != nil && i == 0 {
			near = &shipWrap{inner: link, log: g.hop}
		}
		dc.ConnectTo(core.DCID(peer), []chariots.ReceiverAPI{near})
	}
	for _, dc := range g.dcs {
		dc.Start()
	}
	for i := 0; i < geoWarm; i++ {
		if _, err := g.append(time.Now()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := g.drain(); err != nil {
		return nil, err
	}
	ok = true
	return g, nil
}

func (g *geoRun) close() {
	for _, dc := range g.dcs {
		if dc != nil {
			dc.Stop()
		}
	}
	for _, l := range g.links {
		l.Close()
	}
	for _, c := range g.conns {
		c.Close()
	}
	for _, s := range g.servers {
		s.Close()
	}
}

func (g *geoRun) body(actor uint32, intended time.Time) []byte {
	return newBody(stamp{actor, g.seq.Add(1), 0, intended.UnixNano()}, g.fill)
}

// append is one acknowledged local append at dc0.
func (g *geoRun) append(intended time.Time) (chariots.AppendAck, error) {
	return g.dcs[0].Append(g.body(geoActorDC0, intended), geoTag)
}

// drain waits until each datacenter has applied everything the other has.
func (g *geoRun) drain() error {
	deadline := time.Now().Add(geoDrainLimit)
	for {
		a, b := g.dcs[0].Applied(), g.dcs[1].Applied()
		if a.Covers(b) && b.Covers(a) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("datacenters did not converge: dc0 has %v, dc1 has %v", a, b)
		}
		time.Sleep(time.Millisecond)
	}
}

func runGeo(rc *runCtx) error {
	g, err := timeSetups(rc,
		func(string) (*geoRun, error) { return setupGeo(rc) },
		func(g *geoRun) { g.close() })
	if err != nil {
		return err
	}
	defer g.close()
	dc1 := g.dcs[1]

	// Paced phase. Session 0 appends at dc0; session 1 tails dc1's log,
	// times the records of dc0 it sees, and answers every tenth with an
	// append at dc1, so that records with real causal dependencies travel
	// back.
	head, err := dc1.Head()
	if err != nil {
		return err
	}
	var seen uint64
	acks := &ackLog{}
	tctx, cancelTail := context.WithCancel(context.Background())
	defer cancelTail()
	tl := startTailer(tctx, dc1.Reader(), head+1, func(r *core.Record, st stamp) bool {
		if r.Host != 0 {
			return false
		}
		acks.saw(r.TOId)
		if seen++; seen%geoEchoEvery == 0 {
			dc1.AppendAsync(g.body(geoActorEcho, time.Now()), geoTag)
		}
		return true
	})
	paced := rc.pacedPhase(1, geoRate, rc.paced, func(_ int, intended time.Time) error {
		ack, err := g.append(intended)
		if err == nil {
			acks.acked(ack.TOId, intended)
		}
		return err
	})
	if err := g.drain(); err != nil {
		rc.violate("after the paced phase: %v", err)
	}
	rc.finishTailer(tl, dc1.Head, cancelTail)
	rc.reportPaced(&paced)
	rc.reportDelivery(tl, rc.paced)
	rc.e2e("heap_mb", "MB", heapMB(), 1)
	rc.layer("chariots.visibility_minus_wan_ms", "ms",
		median(windowQuantiles(tl.samples, rc.paced, 0.5))-ms(geoWAN), len(tl.samples))
	if g.hop != nil {
		rc.rec.on.Store(false)
		g.hop.report(rc, acks)
		g.hop.write(rc)
	}

	// Bulk phase: dc0 floods its pipeline in bursts; the figure is how fast
	// dc1 applies what dc0 produced.
	if rc.bulk > 0 {
		rc.reportFlood(g)
	}

	if err := g.drain(); err != nil {
		rc.violate("at the end: %v", err)
	}
	checkGeo(rc, g)
	return nil
}

// reportFlood runs the flood and reports how fast dc1 applied what dc0
// produced: records over the time from the first batch to the last record
// applied at dc1. The flood injects batches back to back, held back only by
// the pipeline's credits, so the pipeline and not the generator sets the
// rate. (A burst that waits for an acknowledgement ties the figure to
// whether its records line up with the batcher's flush threshold or wait out
// the flush interval, which differs from run to run; per-record AppendAsync
// is bound by the generator's one channel send per record.) dc1 applies in
// spurts, so the rate over short windows swings by a factor of two while the
// total repeats far better.
func (rc *runCtx) reportFlood(g *geoRun) {
	dc0, dc1 := g.dcs[0], g.dcs[1]
	base := dc1.Applied().Get(0)
	stages0, stages1 := stageCounts(dc0), stageCounts(dc1)
	start := time.Now()
	flood := runClosedLoop(1, rc.bulk, func(int) (int, error) {
		now := time.Now()
		batch := make([]*core.Record, geoBurst)
		for i := range batch {
			batch[i] = &core.Record{Host: 0, Tags: geoTag, Body: g.body(geoActorDC0, now)}
		}
		dc0.Inject(batch)
		return geoBurst, nil
	})
	ack, err := g.append(time.Now())
	if err != nil {
		rc.violate("closing the flood: %v", err)
		return
	}
	deadline := time.Now().Add(geoDrainLimit)
	for dc1.Applied().Get(0) < ack.TOId && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	drained := time.Since(start).Seconds()
	if got := dc1.Applied().Get(0); got < ack.TOId {
		rc.violate("dc1 applied dc0's records up to TOId %d of %d within %s of the flood", got, ack.TOId, geoDrainLimit)
	}
	rc.attempted += uint64(len(flood.samples))
	rc.layer("client.bulk_recs_s", "records/s", float64(ack.TOId-base)/drained, int(ack.TOId-base))
	rc.layer("client.bulk_op_p50_ms", "ms", median(windowQuantiles(flood.samples, rc.bulk, 0.5)), len(flood.samples))
	for name, n := range stageCounts(dc0) {
		if name != "Receiver" && name != "Store" {
			rc.layer("chariots.stage_recs_s."+name, "records/s", float64(n-stages0[name])/drained, 1)
		}
	}
	rc.layer("chariots.stage_recs_s.Receiver", "records/s",
		float64(stageCounts(dc1)["Receiver"]-stages1["Receiver"])/drained, 1)
	cs := dc0.CreditStats()
	rc.layer("chariots.credit_waits", "count", float64(cs.Waits), 1)
	rc.layer("chariots.credit_max_inuse", "records", float64(cs.MaxInUse), 1)
}

// stageCounts sums Processed by stage kind ("Batcher", "Filter", ...).
func stageCounts(dc *chariots.Datacenter) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range dc.Machines() {
		// "Maintainer 2" counts towards "Maintainer".
		kind, _, _ := strings.Cut(m.Name, " ")
		out[kind] += m.Processed.Value()
	}
	return out
}

// checkGeo requires both logs to be causally consistent sequences holding
// the same records, every one of them intact.
func checkGeo(rc *runCtx, g *geoRun) {
	var ids [2][]uint64
	for i, dc := range g.dcs {
		log, err := dc.LogRecords()
		if err != nil {
			rc.violate("reading dc%d's log: %v", i, err)
			return
		}
		if err := chariots.CheckCausalInvariant(log); err != nil {
			rc.violate("dc%d: %v", i, err)
		}
		for _, r := range log {
			if _, ok := readStamp(r.Body); !ok {
				rc.violate("dc%d: LId %d (%v) has a bad checksum", i, r.LId, r.ID())
				return
			}
			ids[i] = append(ids[i], uint64(r.Host)<<48|r.TOId)
		}
		sort.Slice(ids[i], func(a, b int) bool { return ids[i][a] < ids[i][b] })
	}
	if len(ids[0]) != len(ids[1]) {
		rc.violate("dc0 holds %d records, dc1 holds %d", len(ids[0]), len(ids[1]))
		return
	}
	for k := range ids[0] {
		if ids[0][k] != ids[1][k] {
			rc.violate("the logs differ: dc0 has (host %d, TOId %d) where dc1 has (host %d, TOId %d)",
				ids[0][k]>>48, ids[0][k]&(1<<48-1), ids[1][k]>>48, ids[1][k]&(1<<48-1))
			return
		}
	}
	rc.note("check.geo_records", "records", float64(len(ids[0])), 1)
}
