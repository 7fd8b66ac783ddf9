package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// Sizes of the log workloads, from probes on the 2-vCPU reference host.
const (
	recordBytes  = 512
	pacedBatch   = 4  // records per paced append
	bulkBatch    = 64 // records per bulk append
	logSessions  = 2  // generator sessions, = nproc on the reference host
	volatileRate = 2000.0
	durableRate  = 100.0
)

// warmPlan is a warm-up, which is part of set-up: count appends per session,
// one due every interval. The interval is about twice what an append takes,
// so the warm-up takes count intervals unless the deployment falls behind.
// Back-to-back appends would make set-up time a saturation throughput, and
// on this host that wanders by a quarter from one quarter of an hour to the
// next, which is more than work moved into set-up would add.
type warmPlan struct {
	count int
	every time.Duration
}

var (
	volatileWarm = warmPlan{1000, 400 * time.Microsecond}
	durableWarm  = warmPlan{25, 16 * time.Millisecond}
)

// setupRepeats is how many times a run sets its deployment up; setup_s is
// the median.
var setupRepeats = 3

func runLogVolatile(rc *runCtx) error {
	return runLog(rc, storage.SyncNever, volatileRate, volatileWarm)
}

func runLogDurable(rc *runCtx) error {
	return runLog(rc, storage.SyncGroupCommit, durableRate, durableWarm)
}

// logRun is one built and warmed FLStore deployment with its appenders.
// Client logSessions belongs to the subscriber and the checks.
type logRun struct {
	cl   *flCluster
	apps []*appender
}

func setupLog(rc *runCtx, dir string, sync storage.SyncPolicy, warm warmPlan) (*logRun, error) {
	cl, err := newFLCluster(dir, sync, logSessions+1, rc.rec)
	if err != nil {
		return nil, err
	}
	lr := &logRun{cl: cl}
	for s := 0; s < logSessions; s++ {
		lr.apps = append(lr.apps, newAppender(s, cl.clients[s], filler(rc.seed+uint64(s), recordBytes), rc.rec))
	}
	if err := warmUp(lr.apps, warm, pacedBatch); err != nil {
		cl.close()
		return nil, err
	}
	return lr, nil
}

// warmUp has every appender send plan.count batches, the n-th not before n
// intervals after the start; with no interval, back to back.
func warmUp(apps []*appender, plan warmPlan, batch int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(apps))
	start := time.Now()
	for i, a := range apps {
		wg.Add(1)
		go func(i int, a *appender) {
			defer wg.Done()
			for n := 0; n < plan.count && errs[i] == nil; n++ {
				time.Sleep(time.Until(start.Add(time.Duration(n) * plan.every)))
				errs[i] = a.append(batch, time.Now())
			}
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func runLog(rc *runCtx, sync storage.SyncPolicy, rate float64, warm warmPlan) error {
	lr, err := timeSetups(rc,
		func(dir string) (*logRun, error) { return setupLog(rc, dir, sync, warm) },
		func(lr *logRun) { lr.cl.close() })
	if err != nil {
		return err
	}
	cl, apps := lr.cl, lr.apps
	defer cl.close()
	reader := cl.clients[logSessions]

	// A subscriber tails the log for the whole paced phase.
	head, err := reader.HeadExact()
	if err != nil {
		return err
	}
	tctx, cancelTail := context.WithCancel(context.Background())
	defer cancelTail()
	sub := startTailer(tctx, reader, head+1, nil)

	fsync0, disk0, acked0 := cl.fsyncs(), cl.diskBytes(), ackedOps(apps)
	var fsyncOn uint64
	var diskOn int64
	rc.atTraceOn = func() { fsyncOn, diskOn = cl.fsyncs(), cl.diskBytes() }
	paced := rc.pacedPhase(logSessions, rate, rc.paced, func(s int, intended time.Time) error {
		return apps[s].append(pacedBatch, intended)
	})
	ackedPaced := ackedOps(apps) - acked0
	fsyncs, disk := cl.fsyncs()-fsync0, cl.diskBytes()-disk0
	rc.finishTailer(sub, reader.HeadExact, cancelTail)
	if rc.traced {
		rc.rec.on.Store(false)
		ts := newTraceSet(rc.rec)
		ts.reportAppendLayers(rc, pacedBatch, !cl.clients[0].Session().QuorumFanout(), flReplication/2)
		ts.reportTailLayers(rc, cl.placement, sub.deliveredSince(rc.paced/3))
		ts.reportStoreLayers(rc, cl.fsyncs()-fsyncOn, cl.diskBytes()-diskOn)
		ts.write(rc)
		// Two closed-loop callers with the paced phase's small batch: the
		// saturation figure that swings too widely to gate.
		small := runClosedLoop(logSessions, time.Second, func(c int) (int, error) {
			return pacedBatch, apps[c].append(pacedBatch, time.Now())
		})
		rc.layer("client.sat_small_ops_s", "1/s", float64(len(small.samples))/small.phase.Seconds(), len(small.samples))
	}
	rc.reportPaced(&paced)
	rc.reportDelivery(sub, rc.paced)
	rc.e2e("heap_mb", "MB", heapMB(), 1)
	rc.layer("storage.fsyncs_per_append", "count", float64(fsyncs)/float64(ackedPaced), ackedPaced)
	rc.layer("storage.disk_bytes_per_user_byte", "ratio",
		float64(disk)/float64(ackedPaced*pacedBatch*recordBytes), ackedPaced)

	if rc.bulk > 0 {
		bulk := runClosedLoop(logSessions, rc.bulk, func(c int) (int, error) {
			return bulkBatch, apps[c].append(bulkBatch, time.Now())
		})
		rc.reportBulk(&bulk)
	}

	all := placedOf(apps)
	checkLog(rc, cl, all)
	if sync != storage.SyncNever {
		if err := cl.close(); err != nil {
			rc.violate("closing stores: %v", err)
		}
		checkReopened(rc, cl, all)
	}
	return nil
}

func ackedOps(apps []*appender) int {
	n := 0
	for _, a := range apps {
		n += len(a.acked)
	}
	return n
}
