package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/flstore"
	"repro/internal/storage"
)

// read_mixed: the log_volatile deployment, preloaded well past what the
// maintainers' tail caches hold, read and appended to at the same time.
const (
	preloadRecords = 120_000 // about ten times the three 4096-record tail caches
	preloadBatch   = 256
	scanWindow     = 256 // consecutive LIds per range read
	mixedRate      = 500.0
	// Actors of read_mixed. The appender and the scanner also preload.
	mixedAppender   = 0
	mixedScanner    = 1
	mixedSubscriber = 2
)

// mixedWarm is the appender's warm-up after the preload. The preload itself
// goes back to back: it is work the deployment has to do before it can serve.
var mixedWarm = warmPlan{300, time.Millisecond}

type mixedRun struct {
	cl        *flCluster
	apps      []*appender // appender, and the scanner's preloading half
	preloaded uint64      // head of the log after the preload
	byLId     []placed    // what the preload put at each position up to preloaded
}

func setupMixed(rc *runCtx, dir string) (*mixedRun, error) {
	cl, err := newFLCluster(dir, storage.SyncNever, 3, rc.rec)
	if err != nil {
		return nil, err
	}
	mr := &mixedRun{cl: cl}
	for a := 0; a < 2; a++ {
		mr.apps = append(mr.apps, newAppender(a, cl.clients[a], filler(rc.seed+uint64(a), recordBytes), rc.rec))
	}
	if err := warmUp(mr.apps, warmPlan{count: preloadRecords / preloadBatch / 2}, preloadBatch); err != nil {
		cl.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if mr.preloaded, err = cl.clients[mixedScanner].HeadExact(); err != nil {
		cl.close()
		return nil, err
	}
	mr.byLId = make([]placed, mr.preloaded+1)
	for _, p := range placedOf(mr.apps) {
		if p.lid <= mr.preloaded {
			mr.byLId[p.lid] = p
		}
	}
	if err := warmUp(mr.apps[:1], mixedWarm, pacedBatch); err != nil {
		cl.close()
		return nil, err
	}
	return mr, nil
}

func runReadMixed(rc *runCtx) error {
	mr, err := timeSetups(rc,
		func(dir string) (*mixedRun, error) { return setupMixed(rc, dir) },
		func(mr *mixedRun) { mr.cl.close() })
	if err != nil {
		return err
	}
	cl, apps := mr.cl, mr.apps
	defer cl.close()
	if mr.preloaded < preloadRecords/2 {
		return fmt.Errorf("preload left the head at %d", mr.preloaded)
	}
	sub := cl.clients[mixedSubscriber]

	// The appender runs open loop through both phases.
	total := rc.paced + rc.bulk
	appended := make(chan openLoop, 1)
	go func() {
		appended <- rc.pacedPhase(1, mixedRate, total, func(_ int, intended time.Time) error {
			return apps[mixedAppender].append(pacedBatch, intended)
		})
	}()
	start := time.Now()

	// Paced phase: a subscriber tails from the current head.
	head, err := sub.HeadExact()
	if err != nil {
		return err
	}
	tctx, cancelTail := context.WithCancel(context.Background())
	defer cancelTail()
	tl := startTailer(tctx, sub, head+1, nil)
	time.Sleep(time.Until(start.Add(rc.paced)))
	rc.finishTailer(tl, sub.HeadExact, cancelTail)
	rc.reportDelivery(tl, rc.paced)
	rc.e2e("heap_mb", "MB", heapMB(), 1)

	// Bulk phase: closed-loop range reads of the cold, preloaded region at
	// seeded offsets, beside the appender.
	if remaining := time.Until(start.Add(total)); remaining > 0 {
		scan := runScan(rc, cl.clients[mixedScanner], mr.byLId, remaining)
		rc.reportBulk(&scan)
	}
	// The append metrics are those of the paced phase; what an append took
	// beside the scanner is a diagnostic.
	whole := <-appended
	paced, beside := whole.split(rc.paced)
	rc.reportPaced(&paced)
	if len(beside.samples) > 0 {
		rc.note("client.append_beside_scan_p50_ms", "ms", median(windowQuantiles(beside.samples, beside.phase, 0.5)), len(beside.samples))
		rc.note("client.append_beside_scan_p90_ms", "ms", median(windowQuantiles(beside.samples, beside.phase, 0.9)), len(beside.samples))
	}
	if rc.traced {
		rc.rec.on.Store(false)
		ts := newTraceSet(rc.rec)
		ts.reportAppendLayers(rc, pacedBatch, !cl.clients[0].Session().QuorumFanout(), flReplication/2)
		ts.reportTailLayers(rc, cl.placement, tl.deliveredSince(rc.paced/3))
		ts.reportReadLayers(rc)
		ts.write(rc)
	}
	checkLog(rc, cl, placedOf(apps))
	return nil
}

// runScan reads windows of scanWindow consecutive positions of the
// preloaded region for d and checks every record of every window against
// byLId.
func runScan(rc *runCtx, reader *flstore.Client, byLId []placed, d time.Duration) closedLoop {
	preloaded := uint64(len(byLId) - 1)
	rng := splitmix{state: rc.seed ^ 0x5CA7}
	var bad error
	var root tap
	if rc.rec != nil {
		root = newTap(rc.rec, mixedScanner, -1)
	}
	out := runClosedLoop(1, d, func(int) (int, error) {
		lo := 1 + rng.intn(preloaded-scanWindow)
		tracing := rc.rec != nil && rc.rec.on.Load()
		var start int64
		if tracing {
			start = rc.rec.now()
		}
		recs, err := reader.ReadRange(lo, lo+scanWindow-1)
		if tracing {
			root.span(kClientRead, start, 0, lo, len(recs))
		}
		if err != nil {
			return 0, err
		}
		if len(recs) != scanWindow && bad == nil {
			bad = fmt.Errorf("window at %d returned %d records", lo, len(recs))
		}
		for i, r := range recs {
			if err := byLId[lo+uint64(i)].matches(r); err != nil && bad == nil {
				bad = fmt.Errorf("window at %d: %w", lo, err)
			}
		}
		return len(recs), nil
	})
	if bad != nil {
		rc.violate("scan: %v", bad)
	}
	return out
}
