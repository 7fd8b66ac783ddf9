package flstore

import (
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The package's error sentinels (ErrOverloaded, ErrWrongMaintainer,
// ErrNotReplica, ErrOrderBacklog) live in errors.go together with the
// typed OverloadError and the IsRetryable/RetryAfter helpers.

// MaintainerConfig configures one log maintainer.
type MaintainerConfig struct {
	// Index is this maintainer's position in the placement (0-based).
	Index     int
	Placement Placement

	// FirstLId is the first log position this maintainer's epoch covers
	// (§6.3 elasticity): a maintainer constructed for a newly announced
	// placement starts assigning at the epoch boundary instead of at LId 1.
	// Positions below it belong to earlier epochs and reach this maintainer
	// only through migration (HostMigrated/IngestMigrated). 0 and 1 both mean
	// the epoch starts at the beginning of the log. FirstLId−1 must be a
	// whole number of placement rounds (divisible by NumMaintainers ×
	// BatchSize) so every range's first owned slot sits exactly at the
	// boundary.
	FirstLId uint64

	// Replication is the replica-group size R: besides its own LId range,
	// the maintainer stores follower copies of the R−1 preceding ranges
	// (mod N) and can act as their primary during failover. 0 and 1 both
	// mean unreplicated.
	Replication int

	// Store persists the records; NewMemStore is used when nil.
	Store storage.Store

	// Limiter models the machine's append capacity; nil = unlimited.
	Limiter *ratelimit.Limiter
	// RejectPenalty is the token cost of turning away one record when
	// saturated (models wasted ingress work; see ratelimit.Penalize).
	RejectPenalty float64

	// Indexers receive tag postings for stored records. May be nil.
	Indexers []IndexerAPI

	// EnforceHead makes Read fail with core.ErrPastHead for positions
	// above the gossiped head of the log — the §5.4 requirement that a
	// record at position i is only readable once no gap exists below i.
	EnforceHead bool

	// MaxIngressBacklog bounds the total ingestion backlog — explicit-order
	// records plus out-of-order buffered slots across hosted ranges — above
	// which client-facing appends (Append/AppendFor) are rejected with a
	// retryable OverloadError instead of growing memory without bound. The
	// replica and assigned-LId paths are exempt: rejecting them could
	// deadlock the very drains that shrink the backlog. 0 uses a default of
	// 65536 records; negative disables the bound.
	MaxIngressBacklog int

	// Constants to every deployment (0: the default* value); fields so that
	// this package's tests can reach a bound with a handful of records. The
	// records AppendAfter may park; the capacity of the tail ring that
	// serves reads near the frontier from memory (negative: no ring); how
	// long Read parks on a locally-invalid position before it returns a
	// ReadBlockedError (negative: not at all).
	maxOrderBuffer int
	tailCacheSize  int
	readBlockWait  time.Duration
}

const defaultMaxOrderBuffer = 4096

// rangeState is the per-hosted-range ingestion state: the range's geometry,
// its two slot frontiers, and the out-of-order buffer feeding them. The
// store only ever holds the dense prefix of every hosted range, which makes
// restart recovery and catch-up gap-free. A migrated old-epoch range is a
// rangeState like any other, under the previous placement.
type rangeState struct {
	p   Placement // the geometry the range's slots are laid out under
	idx int
	// announce: the stored frontier feeds nextVec/durVec. False for a migrated
	// range, which is read by its cursor and never gossiped.
	announce bool
	// cap is the slot count the range may fill: unbounded until SealAt (or
	// migration) closes it at its slot count below an epoch boundary.
	cap uint64
	// filled is the assigned frontier (next LId: LIdOfSlot(idx, filled)),
	// read only to assign slots, check cap, release AppendAfter batches and
	// pick an epoch boundary — never by readers.
	filled uint64
	// pending holds records that arrived ahead of filled, keyed by slot.
	pending map[uint64]*core.Record
	// stored is the stored frontier: the contiguous count of slots whose
	// commit tail finished (<= filled). Every reader-facing signal is this.
	stored uint64
	// done parks tails that finished out of order: start slot → end slot.
	done map[uint64]uint64
}

func newRange(p Placement, idx int, announce bool, base, cap uint64) *rangeState {
	return &rangeState{p: p, idx: idx, announce: announce, cap: cap, filled: base, stored: base,
		pending: make(map[uint64]*core.Record), done: make(map[uint64]uint64)}
}

// frontier is the stored frontier in next-unfilled LId form.
func (st *rangeState) frontier() uint64 { return st.p.LIdOfSlot(st.idx, st.stored) }

// drainSpan is the run of st's slots one claim step drained: [start, end).
type drainSpan struct {
	st         *rangeState
	start, end uint64
}

// tail is one batch in the commit tail: the records a claim step drained,
// the slot runs they fill and — for a retry — whether the store has them.
type tail struct {
	mode   ingestMode
	recs   []*core.Record
	spans  []drainSpan
	stored bool
	vec    []uint64 // when set, receives nextVec as the tail publishes
}

// rangeSet is a group of hosted ranges laid out under one placement, keyed
// by range index.
type rangeSet struct {
	p      Placement
	ranges map[int]*rangeState
}

// Maintainer is one FLStore log maintainer (§5.2): it owns the deterministic
// round-robin LId ranges of its index, assigns positions to records after
// they arrive, persists them, answers reads, and gossips its progress so
// every maintainer can compute the head of the log. Under replication it
// additionally follows the R−1 preceding ranges: it ingests copies via
// ReplicaAppend, serves failover reads for them, and can assign their
// positions (AppendFor) while acting as primary.
type Maintainer struct {
	cfg   MaintainerConfig
	store storage.Store

	mu sync.Mutex
	// hosted maps each range this maintainer stores (own + followed) to
	// its ingestion state. The key set is fixed at construction.
	hosted map[int]*rangeState
	// migrated holds the previous-epoch ranges HostMigrated declared.
	// Written once; atomic so Read routes old positions without taking mu.
	migrated atomic.Pointer[rangeSet]
	// nextVec[j] is the latest announced next-unfilled LId of range j:
	// hosted entries fold in from the local stored frontiers and from
	// invalidation announcements, the rest from gossip.
	nextVec []uint64
	// durVec[j] is the highest known durable watermark of range j
	// anywhere in the cluster (LId form, exclusive): some member has
	// fsynced every position of range j below it. Hosted entries fold in
	// from the local stored frontiers when the store is durable-on-return;
	// the rest ride the gossip vector exchange exactly like nextVec.
	durVec []uint64
	// storeDurable caches whether the store reports durability-on-return
	// (storage.SegmentStore with a sync policy); stores that
	// don't (MemStore, SyncNever) never advance the durable watermark.
	storeDurable bool
	// orderBuf parks AppendAfter batches whose minimum-LId bound is not
	// yet satisfiable.
	orderBuf orderHeap
	// pendingCount mirrors the number of records buffered ahead of the
	// assigned frontiers (Σ over hosted ranges of buffered slots) so the
	// admission check reads the backlog in O(1) under mu.
	pendingCount int
	// failed parks the commit tails that errored; claimLock re-runs them
	// before the next claim, so nothing is acked over a stuck frontier.
	failed []tail
	// sealLId, when non-zero, is the first LId of the epoch that
	// supersedes this maintainer: every hosted range is capped below it and
	// appends crossing a cap fail with an EpochSealedError naming it.
	sealLId uint64
	// padded is set by Pad: the caps are now final, and the seal can no
	// longer be raised or lifted.
	padded bool

	// tail caches recently appended records for the batched read path;
	// nil when disabled.
	tail *tailRing
	// waitMu guards waitCh, the broadcast channel wakeWaiters closes (and
	// replaces) whenever a next-unfilled entry advances. Always taken after
	// mu when both are held.
	waitMu sync.Mutex
	waitCh chan struct{}

	// Appended counts records durably stored (exported for experiment
	// instrumentation).
	Appended metrics.Counter
	// Rejected counts records turned away by the capacity limiter.
	Rejected metrics.Counter
	// BacklogRejects counts records turned away because the ingestion
	// backlog was at MaxIngressBacklog (the admission-control companion to
	// the limiter-driven Rejected).
	BacklogRejects metrics.Counter
	// Read-path counters: range/multi-read calls and records served,
	// tail long-polls, tail-ring hits/misses and ring-miss store scans.
	RangeReads      metrics.Counter
	RangeRecords    metrics.Counter
	MultiReads      metrics.Counter
	TailWaits       metrics.Counter
	TailCacheHits   metrics.Counter
	TailCacheMisses metrics.Counter
	StoreScans      metrics.Counter
	// LocalReadHits counts single reads served from the local store (the
	// invalidation protocol's payoff: any valid replica answers without
	// an owner round trip); LocalReadBlocks counts reads that parked on a
	// locally-invalid position (announced, payload not yet resolved).
	LocalReadHits   metrics.Counter
	LocalReadBlocks metrics.Counter

	// appendLatency/readLatency are set by EnableMetrics (nil until then;
	// the serving paths skip observation when unset). EnableMetrics must
	// run before the maintainer serves traffic.
	appendLatency *metrics.BucketHistogram
	readLatency   *metrics.BucketHistogram
	rangeBatch    *metrics.BucketHistogram
	tailWake      *metrics.BucketHistogram
}

// EnableMetrics registers this maintainer's serving-path instrumentation
// with reg: append/read latency histograms, append/rejection counters, the
// explicit-order and out-of-order buffer depths, and the head-of-log and
// next-LId gauges. Every series carries maintainer=<index> plus any extra
// labels (deployments embedding several placements add e.g. dc=<id>).
// Call before the maintainer starts serving.
func (m *Maintainer) EnableMetrics(reg *metrics.Registry, extra ...metrics.Label) {
	lbls := append([]metrics.Label{metrics.L("maintainer", strconv.Itoa(m.cfg.Index))}, extra...)
	m.appendLatency = reg.Histogram("flstore_append_seconds", metrics.LatencyBuckets, lbls...)
	m.readLatency = reg.Histogram("flstore_read_seconds", metrics.LatencyBuckets, lbls...)
	reg.CounterFunc("flstore_appends_total", func() float64 { return float64(m.Appended.Value()) }, lbls...)
	reg.CounterFunc("flstore_rejected_total", func() float64 { return float64(m.Rejected.Value()) }, lbls...)
	reg.CounterFunc("flstore_admission_limiter_rejected_total", func() float64 { return float64(m.Rejected.Value()) }, lbls...)
	reg.CounterFunc("flstore_admission_backlog_rejected_total", func() float64 { return float64(m.BacklogRejects.Value()) }, lbls...)
	reg.GaugeFunc("flstore_admission_backlog_records", func() float64 { return float64(m.IngressBacklog()) }, lbls...)
	reg.GaugeFunc("flstore_admission_backlog_budget_records", func() float64 { return float64(m.cfg.MaxIngressBacklog) }, lbls...)
	reg.GaugeFunc("flstore_order_buffer_records", func() float64 { return float64(m.OrderBuffered()) }, lbls...)
	reg.GaugeFunc("flstore_pending_assigned_slots", func() float64 { return float64(m.PendingAssigned()) }, lbls...)
	reg.GaugeFunc("flstore_head_lid", func() float64 { return float64(m.currentHead()) }, lbls...)
	reg.GaugeFunc("flstore_next_lid", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.nextVec[m.cfg.Index])
	}, lbls...)
	reg.GaugeFunc("flstore_stored_records", func() float64 { return float64(m.store.Len()) }, lbls...)
	reg.GaugeFunc("flstore_hosted_ranges", func() float64 { return float64(len(m.hosted)) }, lbls...)
	m.rangeBatch = reg.Histogram("flstore_range_batch_records", metrics.BatchBuckets, lbls...)
	m.tailWake = reg.Histogram("flstore_tail_wake_seconds", metrics.LatencyBuckets, lbls...)
	reg.CounterFunc("flstore_range_reads_total", func() float64 { return float64(m.RangeReads.Value()) }, lbls...)
	reg.CounterFunc("flstore_range_records_total", func() float64 { return float64(m.RangeRecords.Value()) }, lbls...)
	reg.CounterFunc("flstore_multi_reads_total", func() float64 { return float64(m.MultiReads.Value()) }, lbls...)
	reg.CounterFunc("flstore_tail_waits_total", func() float64 { return float64(m.TailWaits.Value()) }, lbls...)
	reg.CounterFunc("flstore_tail_cache_hits_total", func() float64 { return float64(m.TailCacheHits.Value()) }, lbls...)
	reg.CounterFunc("flstore_tail_cache_misses_total", func() float64 { return float64(m.TailCacheMisses.Value()) }, lbls...)
	reg.CounterFunc("flstore_store_scans_total", func() float64 { return float64(m.StoreScans.Value()) }, lbls...)
	reg.CounterFunc("replica_local_read_hits_total", func() float64 { return float64(m.LocalReadHits.Value()) }, lbls...)
	reg.CounterFunc("replica_local_read_blocks_total", func() float64 { return float64(m.LocalReadBlocks.Value()) }, lbls...)
	// Per hosted range: the validity watermark (dense-prefix frontier LId
	// below which reads are served locally) and the invalidation backlog
	// (positions announced as assigned but not yet resolved here).
	for r := range m.hosted {
		r := r
		rl := append([]metrics.Label{metrics.L("range", strconv.Itoa(r))}, lbls...)
		reg.GaugeFunc("replica_valid_watermark", func() float64 {
			wm, _, _ := m.ValidityWatermark(r)
			return float64(wm)
		}, rl...)
		reg.GaugeFunc("replica_invalidation_backlog", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.invalBacklogLocked(r))
		}, rl...)
		reg.GaugeFunc("replica_durable_watermark", func() float64 {
			wm, _ := m.DurableWatermark(r)
			return float64(wm)
		}, rl...)
	}
}

// NewMaintainer returns a ready maintainer.
func NewMaintainer(cfg MaintainerConfig) (*Maintainer, error) {
	if err := cfg.Placement.Validate(); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Placement.NumMaintainers {
		return nil, fmt.Errorf("flstore: maintainer index %d out of range [0,%d)", cfg.Index, cfg.Placement.NumMaintainers)
	}
	if cfg.FirstLId == 0 {
		cfg.FirstLId = 1
	}
	if rl := uint64(cfg.Placement.NumMaintainers) * cfg.Placement.BatchSize; (cfg.FirstLId-1)%rl != 0 {
		return nil, fmt.Errorf("flstore: epoch FirstLId %d is not round-aligned (round length %d)", cfg.FirstLId, rl)
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	layout := replica.Layout{N: cfg.Placement.NumMaintainers, R: cfg.Replication}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		cfg.Store = storage.NewMemStore()
	}
	if cfg.maxOrderBuffer == 0 {
		cfg.maxOrderBuffer = defaultMaxOrderBuffer
	}
	if cfg.MaxIngressBacklog == 0 {
		cfg.MaxIngressBacklog = 65536
	}
	if cfg.tailCacheSize == 0 {
		cfg.tailCacheSize = defaultTailCacheSize
	}
	if cfg.readBlockWait == 0 {
		cfg.readBlockWait = defaultReadBlockWait
	}
	m := &Maintainer{
		cfg:     cfg,
		store:   cfg.Store,
		hosted:  make(map[int]*rangeState, cfg.Replication),
		nextVec: make([]uint64, cfg.Placement.NumMaintainers),
		durVec:  make([]uint64, cfg.Placement.NumMaintainers),
	}
	if d, ok := cfg.Store.(interface{ Durable() bool }); ok {
		m.storeDurable = d.Durable()
	}
	if cfg.tailCacheSize > 0 {
		m.tail = newTailRing(cfg.tailCacheSize)
	}
	// Hosted ranges start their frontiers at the epoch's base slot: slot 0
	// for an epoch beginning the log, the boundary's slot count for a grown
	// placement's maintainer (everything below the boundary is the previous
	// epoch's, reachable here only via migration).
	for _, r := range layout.Hosts(cfg.Index) {
		m.hosted[r] = newRange(cfg.Placement, r, true, slotsBelowP(cfg.Placement, r, cfg.FirstLId), math.MaxUint64)
	}
	if err := m.recoverRanges(rangeSet{cfg.Placement, m.hosted}, cfg.FirstLId, 0); err != nil {
		return nil, err
	}
	// Initialize every entry to the corresponding maintainer's first owned
	// LId of this epoch, so the new member set's Head() starts exactly at
	// FirstLId−1 (head continuity across a switchover) until gossip arrives.
	// Hosted entries start at the recovered frontiers, but a volatile
	// store's contents must not feed the durability vector.
	for j := range m.nextVec {
		m.nextVec[j] = cfg.Placement.LIdOfSlot(j, slotsBelowP(cfg.Placement, j, cfg.FirstLId))
		m.durVec[j] = m.nextVec[j]
	}
	for r, st := range m.hosted {
		m.nextVec[r] = st.frontier()
		if m.storeDurable {
			m.durVec[r] = m.nextVec[r]
		}
	}
	return m, nil
}

// recoverRanges re-derives the frontiers of set's ranges from the records a
// pre-populated store holds in [lo, hi] (hi 0 = unbounded) — a restart.
// Every record is attributed to its range; the scan is ascending, so a
// range's dense prefix is the run of slots that keeps matching its
// frontier. A non-dense range (a torn batch tail) stays at the dense
// prefix and the rest is re-fetched by catch-up or migration. A collected
// prefix is absent for good, so each range's walk starts at its first slot
// above the store's collected bound. The own range's recovered tags are
// posted again: indexers keep no log of theirs.
func (m *Maintainer) recoverRanges(set rangeSet, lo, hi uint64) error {
	if c, _ := m.store.Collected(); c >= lo {
		lo = c + 1
		for r, st := range set.ranges {
			st.filled = max(st.filled, min(slotsBelowP(set.p, r, lo), st.cap))
			st.stored = st.filled
		}
	}
	if m.store.MaxLId() < lo {
		return nil
	}
	var tagged []*core.Record
	err := m.store.Scan(lo, hi, func(r *core.Record) bool {
		if st := set.ranges[set.p.Owner(r.LId)]; st != nil && set.p.SlotOf(r.LId) == st.filled {
			st.filled++
			st.stored = st.filled
			if len(r.Tags) > 0 && len(m.cfg.Indexers) > 0 && st == m.hosted[m.cfg.Index] {
				tagged = append(tagged, &core.Record{LId: r.LId, Tags: r.Tags}) // not the body
			}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("flstore: recovering frontiers: %w", err)
	}
	return m.postTags(tagged)
}

// Index returns the maintainer's placement index.
func (m *Maintainer) Index() int { return m.cfg.Index }

// hostedRange looks up one of this epoch's ranges (lock-free: fixed key set).
func (m *Maintainer) hostedRange(rangeIdx int) (*rangeState, error) {
	if st, ok := m.hosted[rangeIdx]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
}

// publishLocked is the one place a range's local progress becomes visible:
// the commit tail calls it once the span's slots are stored and posted. It
// advances the contiguous stored frontier and folds it into nextVec — and
// into durVec when the store is durable-on-return, which is all the
// durable watermark is. A range's tails cover abutting slot runs but may
// finish out of order (appends race to the store; group commits return
// with the fsync that covers them), so a run ahead of the frontier parks
// in done: a batch never publishes past an earlier one in flight. Caller
// holds mu.
func (m *Maintainer) publishLocked(sp drainSpan) {
	st := sp.st
	st.done[sp.start] = sp.end
	for end, ok := st.done[st.stored]; ok; end, ok = st.done[st.stored] {
		delete(st.done, st.stored)
		st.stored = end
	}
	if !st.announce {
		return
	}
	f := st.frontier()
	if f > m.nextVec[st.idx] {
		m.nextVec[st.idx] = f
	}
	if m.storeDurable && f > m.durVec[st.idx] {
		m.durVec[st.idx] = f
	}
}

// DurableWatermark returns a hosted range's local durable watermark: the
// LId below which every position of the range is on THIS member's stable
// storage (fsynced, not merely buffered), in next-unfilled form like
// RangeFrontier. It reports 0 when the member's store is volatile — the
// watermark would be meaningless. The quorum-durability status view probes
// it per member; contrast ValidityWatermark, which tracks what is locally
// readable.
func (m *Maintainer) DurableWatermark(rangeIdx int) (uint64, error) {
	f, err := m.RangeFrontier(rangeIdx)
	if err != nil || !m.storeDurable {
		return 0, err
	}
	return f, nil
}

// DurableVec returns a copy of the cluster-durability vector: per range,
// the highest durable watermark any member is known (via gossip) to have.
func (m *Maintainer) DurableVec() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.durVec...)
}

// admit applies the capacity limiter to n records. The success path is
// allocation-free; on rejection the error carries the limiter's token
// deficit as the retry-after hint.
func (m *Maintainer) admit(tc trace.Ctx, n int) error {
	if m.cfg.Limiter.Allow(n) {
		return nil
	}
	m.cfg.Limiter.Penalize(m.cfg.RejectPenalty * float64(n))
	m.Rejected.Add(uint64(n))
	tc.Hop(trace.Default(), "maint.admit", 0, "overload", 0, n)
	return &OverloadError{RetryAfter: m.cfg.Limiter.Delay(n)}
}

// backlogOverloadLocked applies the ingestion-backlog budget to an n-record
// client-facing append. Caller holds mu; returns nil when within budget.
// The retry-after hint is the limiter's deficit when one is configured,
// else a fixed drain guess — the backlog shrinks as replica/assigned
// drains land, which admission cannot time precisely.
func (m *Maintainer) backlogOverloadLocked(n int) error {
	max := m.cfg.MaxIngressBacklog
	if max <= 0 || m.orderBuf.size+m.pendingCount+n <= max {
		return nil
	}
	m.BacklogRejects.Add(uint64(n))
	hint := m.cfg.Limiter.Delay(n)
	if hint <= 0 {
		hint = time.Millisecond
	}
	return &OverloadError{RetryAfter: hint}
}

// IngressBacklog returns the current ingestion backlog the admission budget
// is charged against: explicit-order records plus out-of-order buffered
// slots.
func (m *Maintainer) IngressBacklog() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.orderBuf.size + m.pendingCount
}

// ingestMode is everything that differs between the callers of the one
// ingestion pipeline beyond their claim step.
type ingestMode struct {
	hop   string // trace hop covering arrival through the claim
	admit bool   // charge the capacity limiter: serving paths, not migration or padding
	// strict: own range only, and a taken slot is an error (upstream-assigned
	// records); otherwise copies of stored or buffered slots are skipped.
	strict bool
	post   bool // stream tag postings to the indexers: the acting primary's job, not a copy's
	ring   bool // feed the tail ring serving reads near the frontier
	old    bool // the records are the previous epoch's (below FirstLId), not this one's
}

var (
	modeAssign   = ingestMode{hop: "maint.assign", admit: true, post: true, ring: true}
	modeAssigned = ingestMode{hop: "maint.ingest", admit: true, strict: true, post: true, ring: true}
	modeReplica  = ingestMode{hop: "replica.ingest", admit: true, ring: true}
	modeMigrate  = ingestMode{old: true}
	modePad      = ingestMode{post: true, ring: true}
)

// drainLocked moves the run of buffered records contiguous with st's
// assigned frontier onto ready, advancing it past them. Caller holds mu.
func (m *Maintainer) drainLocked(st *rangeState, ready []*core.Record) []*core.Record {
	for len(st.pending) > 0 {
		r, ok := st.pending[st.filled]
		if !ok {
			break
		}
		delete(st.pending, st.filled)
		m.pendingCount--
		ready = append(ready, r)
		st.filled++
	}
	return ready
}

// commit is the one commit tail behind every ingestion entry point: the
// drained records go to the store, then the tail ring, then the indexers,
// and only then does their range's frontier cover them and parked readers
// wake. That order is the visibility contract (DESIGN.md §7). A failed tail
// publishes nothing and parks on failed for claimLock to re-run; its caller
// gets the error. key is the caller batch's first LId, for the trace.
func (m *Maintainer) commit(tc trace.Ctx, key uint64, t tail) (err error) {
	if len(t.recs) == 0 {
		// Buffered, not stored: whichever later batch drains it records the store span.
		tc.Hop(trace.Default(), t.mode.hop, 0, "buffered", key, 0)
		return nil
	}
	if !t.stored {
		// The hop covers arrival (transit restamped by the wire handler, or the
		// in-process hand-off) through the claim; the store span wraps
		// persistence, with fsync nested inside it by the segment store.
		tc.Hop(trace.Default(), t.mode.hop, 0, "", key, len(t.recs))
		sw := trace.Begin(tc, "maint.store")
		err = m.store.AppendBatch(t.recs)
		sw.End(trace.Default(), trace.Outcome(err, "error"), key, len(t.recs))
		if t.stored = err == nil; t.stored {
			if t.mode.ring && m.tail != nil {
				m.tail.put(t.recs)
			}
			m.Appended.Add(uint64(len(t.recs)))
		}
	}
	if err == nil && t.mode.post {
		err = m.postTags(t.recs)
	}
	m.mu.Lock()
	if err != nil {
		// A copy: the caller's spans live on its stack.
		m.failed = append(m.failed, tail{t.mode, t.recs, append([]drainSpan(nil), t.spans...), t.stored, nil})
		m.mu.Unlock()
		return err
	}
	for _, sp := range t.spans {
		if sp.end > sp.start {
			m.publishLocked(sp)
		}
	}
	copy(t.vec, m.nextVec)
	m.mu.Unlock()
	m.wakeWaiters()
	return nil
}

// claimLock takes mu for a claim step, after re-running every commit tail
// that failed earlier (the store write if it never landed, then the
// postings — both idempotent from here). While one keeps failing the claim
// is refused with its error, mu released: the range's frontier cannot move
// past the failed batch, so nothing new may be assigned and acked behind it.
// (A claim racing a re-run is not held back; like the batches in flight at
// the failure, it parks in done behind the failed one.)
func (m *Maintainer) claimLock() error {
	m.mu.Lock()
	for len(m.failed) > 0 {
		t := m.failed[0]
		m.failed = m.failed[1:]
		m.mu.Unlock()
		if err := m.commit(trace.Ctx{}, 0, t); err != nil {
			return fmt.Errorf("flstore: re-running a failed commit tail: %w", err)
		}
		m.mu.Lock()
	}
	return nil
}

// Append implements MaintainerAPI: post-assignment of log positions in the
// maintainer's own range.
func (m *Maintainer) Append(recs []*core.Record) ([]uint64, error) {
	return m.AppendFor(m.cfg.Index, recs)
}

// AppendFor post-assigns positions in any hosted range — rangeIdx equal to
// the maintainer's own index is the normal append path, other hosted
// ranges are the failover path for a dead owner's range. Past their length
// the LIds carry nextVec as the commit tail left it (replica.Member).
func (m *Maintainer) AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	tc := batchTrace(recs)
	if h := m.appendLatency; h != nil {
		defer h.ObserveSinceEx(time.Now(), uint64(tc.T))
	}
	if err := m.admit(tc, len(recs)); err != nil {
		return nil, err
	}
	st, err := m.hostedRange(rangeIdx)
	if err != nil {
		return nil, err
	}
	for i, r := range recs {
		if r.LId != 0 {
			return nil, fmt.Errorf("flstore: Append record %d already has LId %d", i, r.LId)
		}
	}
	// Checked before a position is taken: a commit tail that can never be
	// stored would be re-run ahead of every later claim (claimLock).
	if err = core.CheckEncodable(recs); err == nil {
		err = m.claimLock()
	}
	if err != nil {
		return nil, err
	}
	// A batch that would cross a sealed epoch's cap is rejected whole
	// (splitting one would hand part of an atomic batch to each epoch); the
	// typed error carries the boundary so the client resumes at the new owners.
	if err = m.backlogOverloadLocked(len(recs)); err == nil && uint64(len(recs)) > st.cap-st.filled {
		err = &EpochSealedError{FirstLId: m.sealLId}
	}
	if err != nil {
		m.mu.Unlock()
		tc.Hop(trace.Default(), modeAssign.hop, 0, appendOutcome(err), 0, len(recs))
		return nil, err
	}
	// One range assignment for the whole batch: the range fills its slots
	// densely, so the batch occupies slots [filled, filled+len).
	sp := drainSpan{st: st, start: st.filled}
	lids := make([]uint64, len(recs), len(recs)+len(m.nextVec))
	st.p.LIdsOfSlots(rangeIdx, st.filled, lids)
	for i, r := range recs {
		r.LId = lids[i]
		if r.TOId == 0 {
			// Standalone FLStore deployments have a single total
			// order, so the LId doubles as the TOId. Chariots
			// deployments assign TOIds upstream and use
			// AppendAssigned instead.
			r.TOId = lids[i]
		}
	}
	st.filled += uint64(len(recs))
	ready := m.drainLocked(st, recs[:len(recs):len(recs)])
	sp.end = st.filled
	released := m.releasableOrderBatchesLocked()
	m.mu.Unlock()

	if err := m.commit(tc, lids[0], tail{mode: modeAssign, recs: ready, spans: []drainSpan{sp}, vec: lids[len(lids):cap(lids)]}); err != nil {
		return nil, err
	}
	for _, b := range released {
		if _, err := m.Append(b.recs); err != nil {
			return nil, fmt.Errorf("flstore: releasing ordered batch: %w", err)
		}
	}
	return lids, nil
}

// AppendAfter implements MaintainerAPI: explicit cross-maintainer ordering
// (§5.4). If the next LId this maintainer would assign already exceeds
// minLId the records are appended immediately; otherwise they are buffered
// and released once the maintainer's frontier passes the bound.
func (m *Maintainer) AppendAfter(minLId uint64, recs []*core.Record) ([]uint64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	if err := core.CheckEncodable(recs); err != nil {
		return nil, err // now, not when the buffered batch is released
	}
	m.mu.Lock()
	if m.nextAssignedLocked() > minLId {
		m.mu.Unlock()
		return m.Append(recs)
	}
	if m.orderBuf.size+len(recs) > m.cfg.maxOrderBuffer {
		m.mu.Unlock()
		return nil, ErrOrderBacklog
	}
	heap.Push(&m.orderBuf, orderBatch{minLId: minLId, recs: recs})
	m.orderBuf.size += len(recs)
	m.mu.Unlock()
	return nil, nil // buffered; LIds assigned on release
}

// nextAssignedLocked is the next LId the own range will assign; it runs
// ahead of NextUnfilled while commit tails are in flight. Caller holds mu.
func (m *Maintainer) nextAssignedLocked() uint64 {
	st := m.hosted[m.cfg.Index]
	return st.p.LIdOfSlot(st.idx, st.filled)
}

// releasableOrderBatchesLocked pops buffered batches whose bound is now
// below the frontier. Caller holds mu.
func (m *Maintainer) releasableOrderBatchesLocked() []orderBatch {
	var out []orderBatch
	next := m.nextAssignedLocked()
	for m.orderBuf.Len() > 0 && m.orderBuf.batches[0].minLId < next {
		b := heap.Pop(&m.orderBuf).(orderBatch)
		m.orderBuf.size -= len(b.recs)
		out = append(out, b)
	}
	return out
}

// AppendAssigned implements MaintainerAPI: ingestion of records whose LIds
// were assigned upstream by Chariots' queues (§6.2). Records ahead of the
// dense frontier are buffered so the frontier only advances contiguously,
// keeping the head-of-log computation exact.
func (m *Maintainer) AppendAssigned(recs []*core.Record) error {
	return m.ingestPlaced(recs, modeAssigned)
}

// ReplicaAppend ingests copies of records whose positions were assigned by
// a range's acting primary; the range is derived from each record's LId,
// and every named range must be hosted here. Delivery is idempotent:
// records at or below the dense frontier (and duplicates of buffered
// slots) are silently skipped, so fan-out retries and duplicated network
// frames are harmless. Tag postings are not re-sent — the acting primary
// already streamed them to the indexers. The copy is its own announcement
// (Invalidate), folded in before admission or the claim may refuse it: a
// refused copy's positions of this epoch's ranges read blocked, not absent.
func (m *Maintainer) ReplicaAppend(recs []*core.Record) error {
	moved := false
	m.mu.Lock()
	for _, r := range recs {
		if r.LId < m.cfg.FirstLId {
			continue // LId 0 or the previous epoch's: the claim refuses it
		}
		if st := m.hosted[m.cfg.Placement.Owner(r.LId)]; st != nil {
			moved = m.announceLocked(st, r.LId+1) || moved
		}
	}
	m.mu.Unlock()
	if moved {
		m.wakeWaiters() // once per copy, not per record
	}
	return m.ingestPlaced(recs, modeReplica)
}

// ingestPlaced takes records that arrive already positioned: each claims
// its own slot in the range its LId names, every touched range drains its
// dense prefix, and one commit tail stores it all.
func (m *Maintainer) ingestPlaced(recs []*core.Record, mode ingestMode) error {
	if len(recs) == 0 {
		return nil
	}
	tc := batchTrace(recs)
	if mode.admit {
		if h := m.appendLatency; h != nil {
			defer h.ObserveSinceEx(time.Now(), uint64(tc.T))
		}
		if err := m.admit(tc, len(recs)); err != nil {
			return err
		}
	}
	// One span per run of records naming the same range — almost always one;
	// a range named by two runs drains on the first and empties the second.
	var buf [1]drainSpan
	spans := buf[:0]
	err := core.CheckEncodable(recs) // before a slot is claimed, as in AppendFor
	if err == nil {
		err = m.claimLock()
	}
	if err != nil {
		return err
	}
	for _, r := range recs {
		st, err := m.placeLocked(r, mode)
		if err != nil {
			m.mu.Unlock()
			return err
		}
		if st != nil && (len(spans) == 0 || spans[len(spans)-1].st != st) {
			spans = append(spans, drainSpan{st: st})
		}
	}
	ready := make([]*core.Record, 0, len(recs))
	for i := range spans {
		sp := &spans[i]
		sp.start = sp.st.filled
		ready = m.drainLocked(sp.st, ready)
		sp.end = sp.st.filled
	}
	m.mu.Unlock()
	return m.commit(tc, recs[0].LId, tail{mode: mode, recs: ready, spans: spans})
}

// placeLocked buffers r at its own slot of the hosted range its LId names
// and returns that range, or nil when r was skipped as already stored or
// in flight. Caller holds mu.
func (m *Maintainer) placeLocked(r *core.Record, mode ingestMode) (*rangeState, error) {
	if r.LId == 0 || (r.LId < m.cfg.FirstLId) != mode.old {
		return nil, fmt.Errorf("flstore: positioned append of LId %d on the wrong side of epoch boundary %d", r.LId, m.cfg.FirstLId)
	}
	st := m.rangeOf(r.LId)
	if mode.strict && st != m.hosted[m.cfg.Index] {
		return nil, fmt.Errorf("%w: %d", ErrWrongMaintainer, r.LId)
	}
	if st == nil {
		return nil, fmt.Errorf("%w: LId %d at maintainer %d", ErrNotReplica, r.LId, m.cfg.Index)
	}
	slot := st.p.SlotOf(r.LId)
	if slot >= st.cap {
		return nil, &EpochSealedError{FirstLId: m.sealLId}
	}
	if _, buffered := st.pending[slot]; buffered || slot < st.filled {
		if mode.strict {
			return nil, fmt.Errorf("%w: %d", storage.ErrDuplicate, r.LId)
		}
		return nil, nil
	}
	st.pending[slot] = r
	m.pendingCount++
	return st, nil
}

// rangeOf returns the hosted range holding position lid — this epoch's or
// a migrated one — or nil when no copy of it is stored here. Safe without
// mu: the hosted key set is fixed and migrated is written once.
func (m *Maintainer) rangeOf(lid uint64) *rangeState {
	if lid >= m.cfg.FirstLId {
		return m.hosted[m.cfg.Placement.Owner(lid)]
	}
	if mg := m.migrated.Load(); mg != nil {
		return mg.ranges[mg.p.Owner(lid)]
	}
	return nil
}

// RangeFrontier returns the next-unfilled LId of a hosted range as known
// locally — its stored frontier: everything below it is in the local store
// and, where this member acted as primary, findable by tag.
func (m *Maintainer) RangeFrontier(rangeIdx int) (uint64, error) {
	f, _, err := m.ValidityWatermark(rangeIdx)
	return f, err
}

// PullRange streams up to limit stored records of a hosted range with
// LId >= fromLId, in ascending LId order — the catch-up feed a restarted
// peer drains to rebuild its copy.
func (m *Maintainer) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	st, err := m.hostedRange(rangeIdx)
	if err != nil {
		return nil, err
	}
	var out []*core.Record
	// The range begins at this epoch's boundary; below it the store holds
	// only migrated records, laid out under another placement.
	err = m.store.Scan(max(fromLId, m.cfg.FirstLId), 0, func(r *core.Record) bool {
		if st.p.Owner(r.LId) != rangeIdx {
			return true
		}
		out = append(out, r)
		return limit <= 0 || len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// postTags streams this batch's tag postings to the owning indexers.
func (m *Maintainer) postTags(recs []*core.Record) error {
	if len(m.cfg.Indexers) == 0 {
		return nil
	}
	batches := make(map[int][]Posting)
	for _, r := range recs {
		for _, t := range r.Tags {
			idx := IndexerFor(t.Key, len(m.cfg.Indexers))
			batches[idx] = append(batches[idx], Posting{Key: t.Key, Value: t.Value, LId: r.LId})
		}
	}
	for idx, b := range batches {
		if err := m.cfg.Indexers[idx].Post(b); err != nil {
			return fmt.Errorf("flstore: posting to indexer %d: %w", idx, err)
		}
	}
	return nil
}

// IndexerFor returns the indexer partition owning a tag key.
func IndexerFor(key string, numIndexers int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numIndexers))
}

// defaultReadBlockWait bounds Read's park on a locally-invalid position —
// one an invalidation announced but whose payload has not resolved here:
// the announcing copy is normally in this member's own store, so 2 ms
// resolves the common race in place without stalling the serving
// goroutine. readBlockHint is the pacing hint attached when the wait
// expires (a copy refused here is re-sent after a paced pause of about a
// millisecond, so a retry normally lands after it).
const (
	defaultReadBlockWait = 2 * time.Millisecond
	readBlockHint        = time.Millisecond
)

// Invalidate implements the Hermes-style announcement: every position of
// rangeIdx strictly below upTo has been assigned by the range's acting
// primary. The bound folds into nextVec — the same vector gossip and
// replica ingestion advance — so the head of the log sees the assignment
// at once while the positions between the local frontier and the bound
// are locally *invalid*: Read blocks or fails over for them instead of
// reporting them absent. A replica copy announces itself the same way on
// arrival (ReplicaAppend), so live fan-out sends no Invalidate; catch-up
// replays a peer's bound through it. Idempotent and monotone; stale
// announcements are no-ops.
func (m *Maintainer) Invalidate(rangeIdx int, upTo uint64) error {
	st, err := m.hostedRange(rangeIdx)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.announceLocked(st, upTo) {
		m.wakeWaiters()
	}
	return nil
}

// announceLocked folds an assignment bound for st into nextVec, in frontier
// form so it compares with local fills and gossip, and reports whether the
// entry moved (the caller then wakes waiters). Caller holds mu.
func (m *Maintainer) announceLocked(st *rangeState, upTo uint64) bool {
	bound, old := st.p.LIdOfSlot(st.idx, slotsBelowP(st.p, st.idx, upTo)), m.nextVec[st.idx]
	m.nextVec[st.idx] = max(bound, old)
	return bound > old
}

// slotsBelowP counts how many of rangeIdx's positions lie strictly below
// bound under placement p. Besides normalizing invalidation bounds, this
// is the switchover arithmetic: an epoch boundary F caps each old range at
// slotsBelowP(oldP, r, F) slots, and a new maintainer's ranges base at
// slotsBelowP(newP, r, F).
func slotsBelowP(p Placement, rangeIdx int, bound uint64) uint64 {
	if bound <= 1 {
		return 0
	}
	lid := bound - 1 // last position the bound covers
	chunk := (lid - 1) / p.BatchSize
	round := chunk / uint64(p.NumMaintainers)
	switch cpos := int(chunk % uint64(p.NumMaintainers)); {
	case cpos > rangeIdx:
		return (round + 1) * p.BatchSize
	case cpos < rangeIdx:
		return round * p.BatchSize
	default:
		return round*p.BatchSize + (lid-1)%p.BatchSize + 1
	}
}

// ValidityWatermark implements InvalidationAPI: a hosted range's validity
// watermark (the stored frontier LId — every position below it is
// resolved and served locally) and its announced assignment bound (every
// position below it is assigned somewhere in the group). The span between
// the two is this member's invalidation backlog.
func (m *Maintainer) ValidityWatermark(rangeIdx int) (watermark, announced uint64, err error) {
	st, err := m.hostedRange(rangeIdx)
	if err != nil {
		return 0, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return st.frontier(), m.announcedLocked(st), nil
}

// announcedLocked bounds the positions of st known assigned: its nextVec
// entry (never behind the frontier), or for a migrated range, which nobody
// announces, the frontier itself. Caller holds mu.
func (m *Maintainer) announcedLocked(st *rangeState) uint64 {
	if st.announce {
		return m.nextVec[st.idx]
	}
	return st.frontier()
}

// invalBacklogLocked returns how many of hosted range rangeIdx's positions
// are announced but unresolved here. Caller holds mu.
func (m *Maintainer) invalBacklogLocked(rangeIdx int) uint64 {
	st := m.hosted[rangeIdx]
	return slotsBelowP(st.p, rangeIdx, m.announcedLocked(st)) - st.stored
}

// Read implements MaintainerAPI. It serves every hosted range, migrated
// ones included: below the range's validity watermark the record comes
// straight from the local store (any valid replica answers, no owner round
// trip; positions of ranges not stored here keep the wrong-maintainer
// semantics — the epoch journal routes them elsewhere); between the
// watermark and the announced assignment bound the position is invalid
// here — Read parks up to readBlockWait for the in-flight payload, then
// returns a retryable ReadBlockedError so the caller fails over to a
// fresher replica; above the announced bound the position does not exist
// yet and the legacy core.ErrNoSuchRecord semantics apply.
func (m *Maintainer) Read(lid uint64) (*core.Record, error) {
	if h := m.readLatency; h != nil {
		defer h.ObserveSince(time.Now())
	}
	if lid == 0 {
		return nil, core.ErrNoSuchRecord
	}
	st := m.rangeOf(lid)
	if st == nil {
		return nil, fmt.Errorf("%w: %d", ErrWrongMaintainer, lid)
	}
	if m.cfg.EnforceHead {
		if head := m.currentHead(); lid > head {
			return nil, fmt.Errorf("%w: LId %d > head %d", core.ErrPastHead, lid, head)
		}
	}
	rec, err := m.store.Get(lid)
	if err == nil {
		m.LocalReadHits.Inc()
		return rec, nil
	}
	if !errors.Is(err, core.ErrNoSuchRecord) {
		return nil, err
	}
	return m.blockedRead(st, lid)
}

// blockedRead resolves a store miss against the invalidation state: a
// position below the announced bound, or one this member assigned whose
// commit tail is still running, is assigned — locally invalid, not absent
// — so the read parks on the progress channel for the in-flight payload
// (bounded by readBlockWait) rather than serving a stale no-such-record.
// Positions past both, and collected ones (at or below the store's
// collected bound), keep the legacy absent semantics.
func (m *Maintainer) blockedRead(st *rangeState, lid uint64) (*core.Record, error) {
	// A negative readBlockWait puts the deadline in the past: no parking.
	deadline := time.Now().Add(m.cfg.readBlockWait)
	for blocked := false; ; blocked = true {
		// Grab the channel before checking state: progress between the
		// check and the park closes this channel, so no wakeup is lost.
		ch := m.waitChan()
		collected, _ := m.store.Collected()
		m.mu.Lock()
		absent := lid <= collected || (lid >= m.announcedLocked(st) && st.p.SlotOf(lid) >= st.filled)
		m.mu.Unlock()
		if absent {
			return nil, core.ErrNoSuchRecord
		}
		// Assigned but missed above: either the payload is still in
		// flight, or it resolved (store write, then frontier advance)
		// between the miss and now — re-check the store each pass.
		if rec, err := m.store.Get(lid); err == nil {
			m.LocalReadHits.Inc()
			return rec, nil
		}
		if !blocked {
			m.LocalReadBlocks.Inc()
		}
		if !park(ch, deadline) {
			return nil, &ReadBlockedError{LId: lid, RetryAfter: readBlockHint}
		}
	}
}

func (m *Maintainer) currentHead() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Head(m.nextVec)
}

// Head implements MaintainerAPI.
func (m *Maintainer) Head() (uint64, error) { return m.currentHead(), nil }

// NextUnfilled implements MaintainerAPI: the own range's stored frontier.
func (m *Maintainer) NextUnfilled() (uint64, error) {
	return m.RangeFrontier(m.cfg.Index)
}

// GossipVecs implements MaintainerAPI — the one gossip exchange (§5.4). It
// merges a peer's next-unfilled vector and its durable-watermark vector
// (entry j: the highest LId of range j known fsynced on the peer's quorum
// view) element-wise max and returns copies of ours. Whole vectors make
// gossip replication-aware: a follower advances a dead owner's entry from
// its replicated frontier, and the exchange spreads that so the head of
// the log keeps moving without the owner. The message stays fixed-size (2N
// LIds), preserving §5.4's throughput-independence. The durable vector is
// monotone and advisory — it never gates appends.
func (m *Maintainer) GossipVecs(next, dur []uint64) ([]uint64, []uint64, error) {
	if len(next) > len(m.nextVec) || len(dur) > len(m.durVec) {
		return nil, nil, fmt.Errorf("flstore: gossip vectors of %d/%d entries from a placement wider than %d",
			len(next), len(dur), len(m.nextVec))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for j, v := range next {
		if v > m.nextVec[j] {
			m.nextVec[j] = v
			changed = true
		}
	}
	for j, v := range dur {
		if v > m.durVec[j] {
			m.durVec[j] = v
		}
	}
	if changed {
		m.wakeWaiters()
	}
	return append([]uint64(nil), m.nextVec...), append([]uint64(nil), m.durVec...), nil
}

// NextVec returns a copy of the maintainer's next-unfilled vector.
func (m *Maintainer) NextVec() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]uint64(nil), m.nextVec...)
}

// PendingAssigned returns how many out-of-order records are buffered
// across hosted ranges (test/ops introspection).
func (m *Maintainer) PendingAssigned() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pendingCount
}

// OrderBuffered returns how many explicit-order records are parked.
func (m *Maintainer) OrderBuffered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.orderBuf.size
}

// Store exposes the underlying store (used by senders and tests).
func (m *Maintainer) Store() storage.Store { return m.store }

// Trim collects the log prefix up to upTo — what a layer above has
// garbage-collected (Chariots' §6.1), with covered its per-host TOIds
// (storage.Store.GC) — and returns how many records the store dropped. The
// store keeps the bound, and every read here answers a position at or below
// it as absent at once. The postings at or below upTo go first, from the
// in-process indexers, so that a lookup from then on finds only what a read
// can fetch; an indexer behind RPC keeps them.
func (m *Maintainer) Trim(upTo uint64, covered []core.Dep) (int, error) {
	for _, ix := range m.cfg.Indexers {
		if ix, ok := ix.(*Indexer); ok {
			ix.prune(upTo)
		}
	}
	return m.store.GC(upTo, covered)
}

// orderBatch is an AppendAfter batch waiting for its LId lower bound.
type orderBatch struct {
	minLId uint64
	recs   []*core.Record
}

// orderHeap is a min-heap of orderBatches by minLId.
type orderHeap struct {
	batches []orderBatch
	size    int
}

func (h orderHeap) Len() int            { return len(h.batches) }
func (h orderHeap) Less(i, j int) bool  { return h.batches[i].minLId < h.batches[j].minLId }
func (h orderHeap) Swap(i, j int)       { h.batches[i], h.batches[j] = h.batches[j], h.batches[i] }
func (h *orderHeap) Push(x interface{}) { h.batches = append(h.batches, x.(orderBatch)) }
func (h *orderHeap) Pop() interface{} {
	old := h.batches
	n := len(old)
	x := old[n-1]
	h.batches = old[:n-1]
	return x
}
