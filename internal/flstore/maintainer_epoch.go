package flstore

// Maintainer-side epoch switchover mechanics (§6.3). A switchover retires
// the write authority of an old placement at a boundary LId F and hands
// every position from F up to a new placement's owners:
//
//   1. every old maintainer SealAt(F)s, with F round-aligned under BOTH
//      placements and above every old frontier: hosted ranges cap their
//      fill at their slot count below F, and batches that would cross the
//      cap are rejected whole with an EpochSealedError carrying F;
//   2. the coordinator announces the new epoch (controller journal +
//      epoch-carried topology) — only once every old owner is sealed, so
//      nothing journalled can be outrun by a live append;
//   3. after a drain window for in-flight appends, each old owner Pad()s
//      the remainder of its own range below F with tagged seal records, so
//      the old epoch's prefix is dense and its head lands exactly at F−1 —
//      which is where the new member set's head starts;
//   4. the old ranges migrate asynchronously to the new owners
//      (HostMigrated + IngestMigrated, fed by PullRange), while the epoch
//      journal keeps reads routed to the old members until retirement.
//
// The Orchestrator in elastic.go drives the sequence.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/trace"
)

// SealTagKey tags the filler records Pad writes below an epoch boundary.
// Seal records carry no application payload; readers that iterate a range
// spanning a switchover can skip them by tag. (Dotted, so the key can
// never collide with a metric family name.)
const SealTagKey = "log.seal"

// SealAt seals this maintainer's epoch at boundary firstLId: every hosted
// range caps its fill at its slot count below the boundary, and appends
// that would cross a cap fail with an EpochSealedError naming the
// boundary. The boundary must be round-aligned under this placement (so
// padding can close every range exactly at it) and at or above every
// hosted fill frontier. Idempotent for the same boundary. Until Pad, a seal
// may be raised — caps only rise, so nothing admitted under the lower one
// is disturbed — which lets a coordinator whose boundary was outrun by live
// appends re-pick above them; it can never be lowered.
func (m *Maintainer) SealAt(firstLId uint64) error {
	if firstLId <= 1 {
		return fmt.Errorf("flstore: seal boundary %d is not a valid epoch start", firstLId)
	}
	if rl := uint64(m.cfg.Placement.NumMaintainers) * m.cfg.Placement.BatchSize; (firstLId-1)%rl != 0 {
		return fmt.Errorf("flstore: seal boundary %d is not round-aligned (round length %d)", firstLId, rl)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.sealLId == firstLId:
		return nil
	case m.padded:
		return fmt.Errorf("flstore: padded at seal %d, cannot reseal at %d", m.sealLId, firstLId)
	case firstLId < m.sealLId:
		return fmt.Errorf("flstore: sealed at %d, cannot lower the seal to %d", m.sealLId, firstLId)
	}
	for r, st := range m.hosted {
		if cap := slotsBelowP(st.p, r, firstLId); st.filled > cap {
			return fmt.Errorf("flstore: seal boundary %d is below range %d's frontier (%d > %d slots)",
				firstLId, r, st.filled, cap)
		}
	}
	for r, st := range m.hosted {
		st.cap = slotsBelowP(st.p, r, firstLId)
	}
	m.sealLId = firstLId
	return nil
}

// unseal lifts a seal that has not been padded, so the hosted ranges are
// unbounded again: a switchover that fails before it journals anything
// hands the log back to the old epoch.
func (m *Maintainer) unseal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.padded {
		return
	}
	for _, st := range m.hosted {
		st.cap = math.MaxUint64
	}
	m.sealLId = 0
}

// Pad fills the remainder of this maintainer's own range below the sealed
// boundary with seal records (TOId = LId, tagged SealTagKey) — the sealing
// protocol's final write, landing exactly on the cap. Records that were
// assigned upstream and still sit in the out-of-order buffer keep their
// slots; only genuinely empty slots get fillers. After Pad the own range's
// frontier is exactly the boundary, so once every old owner has padded,
// the old epoch's head is F−1 with no gap below it. Returns the records
// written (for replica fan-out when R>1); nil when the range was full.
func (m *Maintainer) Pad() ([]*core.Record, error) {
	if err := m.claimLock(); err != nil {
		return nil, err
	}
	if m.sealLId == 0 {
		m.mu.Unlock()
		return nil, errors.New("flstore: Pad before SealAt")
	}
	m.padded = true
	st := m.hosted[m.cfg.Index]
	sp := drainSpan{st: st, start: st.filled}
	for slot := st.filled; slot < st.cap; slot++ {
		if _, raced := st.pending[slot]; !raced {
			lid := st.p.LIdOfSlot(st.idx, slot)
			st.pending[slot] = &core.Record{LId: lid, TOId: lid, Tags: []core.Tag{{Key: SealTagKey, Value: "1"}}}
			m.pendingCount++
		}
	}
	recs := m.drainLocked(st, nil)
	sp.end = st.filled
	m.mu.Unlock()
	if err := m.commit(trace.Ctx{}, 0, tail{mode: modePad, recs: recs, spans: []drainSpan{sp}}); err != nil {
		return nil, err
	}
	return recs, nil
}

// HostMigrated declares which previous-epoch ranges this maintainer is the
// migration target for: each becomes a hosted range under the previous
// placement p, capped at this epoch's boundary. Any prefix already in the
// store (a restart mid-migration) is recovered, so re-driving the migration
// is idempotent. Must be called on a maintainer whose epoch starts past
// LId 1, at most once.
func (m *Maintainer) HostMigrated(p Placement, ranges []int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.FirstLId <= 1 {
		return errors.New("flstore: HostMigrated on an epoch-0 maintainer")
	}
	if m.migrated.Load() != nil {
		return errors.New("flstore: migrated ranges already configured")
	}
	mg := rangeSet{p, make(map[int]*rangeState, len(ranges))}
	for _, r := range ranges {
		if r < 0 || r >= p.NumMaintainers {
			return fmt.Errorf("flstore: migrated range %d out of range [0,%d)", r, p.NumMaintainers)
		}
		mg.ranges[r] = newRange(p, r, false, 0, slotsBelowP(p, r, m.cfg.FirstLId))
	}
	if err := m.recoverRanges(mg, 1, m.cfg.FirstLId-1); err != nil {
		return err
	}
	m.migrated.Store(&mg)
	return nil
}

// IngestMigrated ingests migrated previous-epoch records through the same
// idempotent, dense-prefix placement as ReplicaAppend — so a migration
// stream that fails over to a different source mid-range is harmless.
// Background copying is not serving traffic: it bypasses the capacity
// limiter and stays out of the tail ring.
func (m *Maintainer) IngestMigrated(recs []*core.Record) error {
	return m.ingestPlaced(recs, modeMigrate)
}

// MigratedFrontier returns the migration cursor for a previous-epoch
// range: the next LId this maintainer still needs (frontier form under the
// previous placement) and whether the range is fully migrated.
func (m *Maintainer) MigratedFrontier(rangeIdx int) (uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mg := m.migrated.Load(); mg != nil && mg.ranges[rangeIdx] != nil {
		st := mg.ranges[rangeIdx]
		return st.frontier(), st.stored >= st.cap, nil
	}
	return 0, false, fmt.Errorf("%w: migrated range %d at maintainer %d", ErrNotReplica, rangeIdx, m.cfg.Index)
}
