package chariots

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// Observability for the Chariots pipeline (§6.2). EnableMetrics exports the
// state every stage already tracks — processed counts, inbox depths,
// awareness-table rows — as registry series, plus batch-size histograms and
// the per-remote replication lag described below. Everything is registered
// as scrape-time callbacks (GaugeFunc/CounterFunc), so the pipeline's hot
// paths pay nothing beyond the counters they already maintain; only the
// batch-size histograms and the apply-time ring add per-batch work.
//
// Metric names and label conventions are documented in DESIGN.md
// ("Observability").

// applyRingSize bounds the apply-time ring. With 64Ki entries a remote may
// lag up to 64Ki records before ring slots are overwritten; beyond that the
// reported wall-time lag is an underestimate (the slot holds a newer
// record's apply time). The records-lag gauge has no such bound, so the
// pair together still exposes pathological lag.
const applyRingSize = 1 << 16

// applyTimeRing records the wall time at which each local TOId was applied,
// indexed by TOId modulo the ring size. It backs the
// chariots_replication_lag_seconds gauge: the age of the oldest local
// record a remote datacenter has not yet acknowledged.
type applyTimeRing struct {
	times []atomic.Int64 // UnixNano at apply; 0 = never recorded
}

func newApplyTimeRing() *applyTimeRing {
	return &applyTimeRing{times: make([]atomic.Int64, applyRingSize)}
}

func (r *applyTimeRing) record(toid uint64, unixNano int64) {
	r.times[toid%applyRingSize].Store(unixNano)
}

func (r *applyTimeRing) at(toid uint64) int64 {
	return r.times[toid%applyRingSize].Load()
}

// enableMetrics exports one stage machine's throughput counter and observes
// its batch sizes. Must run before the machine starts working (the
// batch-size histogram pointer is read without synchronization).
func (s *StageMachine) enableMetrics(reg *metrics.Registry, stage string, extra ...metrics.Label) {
	lbls := append([]metrics.Label{metrics.L("stage", stage), metrics.L("machine", s.Name)}, extra...)
	reg.CounterFunc("chariots_stage_processed_total", func() float64 { return float64(s.Processed.Value()) }, lbls...)
	s.batchSize = reg.Histogram("chariots_stage_batch_records", metrics.BatchBuckets, lbls...)
}

// EnableMetrics registers the datacenter's pipeline instrumentation with
// reg. Every series carries dc=<self>; per-machine series add stage= and
// machine= labels. Call after New and before Start — stage hooks are
// installed without synchronization against running goroutines.
//
// Exported state, per §6.2 stage:
//   - every machine: processed counter, batch-size histogram, inbox depth
//   - queues: applied counter, token-drainable buffer depth
//   - filters: duplicate drops, reorder-buffer overflows and depth
//   - senders: shipped/error counters, local-feed depth
//   - maintainers and gossipers: the flstore_* series (EnableMetrics there)
//   - segment stores: the storage_* series, when disk-backed
//   - awareness: per-host applied TOId, per-remote replication lag in
//     records and in seconds (apply-time ring)
func (dc *Datacenter) EnableMetrics(reg *metrics.Registry) {
	dcLbl := metrics.L("dc", strconv.Itoa(int(dc.cfg.Self)))
	// Inter-stage channels carry batches, so depth is reported in batches
	// in flight (the batch-size histograms give the records-per-batch
	// distribution to convert with).
	inboxDepth := func(stage string, name string, ch chan []*core.Record) {
		reg.GaugeFunc("chariots_stage_inbox_batches", func() float64 { return float64(len(ch)) },
			metrics.L("stage", stage), metrics.L("machine", name), dcLbl)
	}

	// What replaced the flush and send timers: per flush/shipment, how long
	// its oldest record sat in the stage. ≈ 0 when idle; the downstream
	// stall when backed up.
	handoffWait := func(stage, name string) *metrics.BucketHistogram {
		return reg.Histogram("chariots_stage_handoff_wait_seconds", metrics.LatencyBuckets,
			metrics.L("stage", stage), metrics.L("machine", name), dcLbl)
	}

	for _, b := range dc.batchers {
		b.enableMetrics(reg, "batcher", dcLbl)
		inboxDepth("batcher", b.Name, b.in)
		b.handoffWait = handoffWait("batcher", b.Name)
	}
	for _, f := range dc.filters {
		f := f
		f.enableMetrics(reg, "filter", dcLbl)
		inboxDepth("filter", f.Name, f.in)
		mLbl := metrics.L("machine", f.Name)
		reg.CounterFunc("chariots_filter_dropped_total", func() float64 { return float64(f.Dropped.Value()) }, mLbl, dcLbl)
		reg.CounterFunc("chariots_filter_overflow_total", func() float64 { return float64(f.Overflow.Value()) }, mLbl, dcLbl)
	}
	for _, q := range dc.queues {
		q := q
		q.enableMetrics(reg, "queue", dcLbl)
		inboxDepth("queue", q.Name, q.in)
		mLbl := metrics.L("machine", q.Name)
		reg.GaugeFunc("chariots_queue_buffered_batches", func() float64 { return float64(len(q.buffered)) }, mLbl, dcLbl)
		reg.CounterFunc("chariots_queue_applied_total", func() float64 { return float64(q.Applied.Value()) }, mLbl, dcLbl)
		reg.CounterFunc("chariots_token_passes_total", func() float64 { return float64(q.passes.Value()) }, mLbl, dcLbl)
	}
	for _, sm := range dc.maintainerMachines {
		sm.enableMetrics(reg, "maintainer", dcLbl)
	}
	for _, cs := range dc.stores {
		cs.sm.enableMetrics(reg, "store", dcLbl)
		if seg, ok := cs.Store.(*storage.SegmentStore); ok {
			seg.EnableMetrics(reg, metrics.L("machine", cs.sm.Name), dcLbl)
		}
	}
	for _, s := range dc.senders {
		s := s
		s.enableMetrics(reg, "sender", dcLbl)
		s.handoffWait = handoffWait("sender", s.Name)
		mLbl := metrics.L("machine", s.Name)
		reg.CounterFunc("chariots_sender_shipped_total", func() float64 { return float64(s.Shipped.Value()) }, mLbl, dcLbl)
		reg.CounterFunc("chariots_sender_errors_total", func() float64 { return float64(s.Errors.Value()) }, mLbl, dcLbl)
	}
	for _, r := range dc.receivers {
		r.enableMetrics(reg, "receiver", dcLbl)
	}
	for i, m := range dc.maintainers {
		m.EnableMetrics(reg, dcLbl)
		dc.gossipers[i].EnableMetrics(reg, dcLbl)
	}

	reg.GaugeFunc("chariots_feed_batches", func() float64 { return float64(len(dc.state.localFeed)) }, dcLbl)
	reg.CounterFunc("chariots_applied_records_total", func() float64 { return float64(dc.AppliedCount()) }, dcLbl)

	// Pipeline credit gate (DESIGN.md §8): capacity, records between
	// ingress and apply, its high-water mark, and how often ingress blocked
	// or shed.
	reg.GaugeFunc("chariots_credit_capacity_records", func() float64 {
		return float64(dc.CreditStats().Capacity)
	}, dcLbl)
	reg.GaugeFunc("chariots_credit_in_use_records", func() float64 {
		return float64(dc.CreditStats().InUse)
	}, dcLbl)
	reg.GaugeFunc("chariots_credit_high_water_records", func() float64 {
		return float64(dc.CreditStats().MaxInUse)
	}, dcLbl)
	reg.CounterFunc("chariots_credit_waits_total", func() float64 {
		return float64(dc.CreditStats().Waits)
	}, dcLbl)
	reg.CounterFunc("chariots_credit_shed_total", func() float64 {
		return float64(dc.CreditStats().Sheds)
	}, dcLbl)

	// Awareness: what this datacenter has applied of each host's records.
	for host := 0; host < dc.cfg.NumDCs; host++ {
		host := core.DCID(host)
		reg.GaugeFunc("chariots_applied_toid", func() float64 {
			return float64(dc.state.atable.Get(dc.cfg.Self, host))
		}, metrics.L("host", strconv.Itoa(int(host))), dcLbl)
	}

	// Replication lag toward each remote, from the awareness table: how far
	// the remote's acknowledged prefix of OUR records trails what we have
	// applied locally — in records (exact) and in wall time (apply-time
	// ring; see applyRingSize for the approximation bound).
	ring := newApplyTimeRing()
	dc.state.applyTimes.Store(ring)
	self := dc.cfg.Self
	for remote := 0; remote < dc.cfg.NumDCs; remote++ {
		remote := core.DCID(remote)
		if remote == self {
			continue
		}
		rLbl := metrics.L("remote", strconv.Itoa(int(remote)))
		reg.GaugeFunc("chariots_replication_lag_records", func() float64 {
			ours := dc.state.atable.Get(self, self)
			acked := dc.state.atable.Get(remote, self)
			if acked >= ours {
				return 0
			}
			return float64(ours - acked)
		}, rLbl, dcLbl)
		reg.GaugeFunc("chariots_replication_lag_seconds", func() float64 {
			ours := dc.state.atable.Get(self, self)
			acked := dc.state.atable.Get(remote, self)
			if acked >= ours {
				return 0
			}
			ns := ring.at(acked + 1)
			if ns == 0 {
				return 0 // applied before metrics were enabled
			}
			lag := time.Since(time.Unix(0, ns)).Seconds()
			if lag < 0 {
				return 0
			}
			return lag
		}, rLbl, dcLbl)
	}
}
