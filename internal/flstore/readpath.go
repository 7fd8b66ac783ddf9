package flstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Server-side defaults bounding one range-read response. A response the
// budget truncates reports how far it got (RangeResult.CoveredHi) and the
// client resumes from the next position, so the budgets bound memory and
// frame size without bounding the API.
const (
	defaultRangeMaxRecords = 8192
	defaultRangeMaxBytes   = 1 << 20
	defaultTailWait        = 100 * time.Millisecond
	defaultTailCacheSize   = 4096
)

// tailRing is the maintainer's in-memory cache of recently appended
// records: a fixed-capacity ring indexed by LId modulo capacity, with an
// exact-LId check on lookup so an overwritten slot reads as a miss rather
// than a wrong record. Tailing readers run close behind the append
// frontier, so they are served from here without touching the store.
type tailRing struct {
	mu   sync.RWMutex
	recs []*core.Record
}

func newTailRing(capacity int) *tailRing {
	return &tailRing{recs: make([]*core.Record, capacity)}
}

func (t *tailRing) put(recs []*core.Record) {
	n := uint64(len(t.recs))
	t.mu.Lock()
	for _, r := range recs {
		t.recs[r.LId%n] = r
	}
	t.mu.Unlock()
}

func (t *tailRing) get(lid uint64) *core.Record {
	t.mu.RLock()
	r := t.recs[lid%uint64(len(t.recs))]
	t.mu.RUnlock()
	if r == nil || r.LId != lid {
		return nil
	}
	return r
}

// wakeWaiters wakes parked TailWait calls and blocked reads after a commit
// tail finished (the batch is in the store and its range's frontier was
// published) or a next-unfilled entry advanced from outside (gossip, an
// invalidation announcement). Waiters re-check their own condition, so a
// broadcast that doesn't concern them is just a spurious wakeup. Safe with
// or without mu held (it takes only waitMu, which is ordered after mu).
func (m *Maintainer) wakeWaiters() {
	m.waitMu.Lock()
	if m.waitCh != nil {
		close(m.waitCh)
		m.waitCh = nil
	}
	m.waitMu.Unlock()
}

// waitChan returns the broadcast channel the next frontier advance closes.
func (m *Maintainer) waitChan() chan struct{} {
	m.waitMu.Lock()
	if m.waitCh == nil {
		m.waitCh = make(chan struct{})
	}
	ch := m.waitCh
	m.waitMu.Unlock()
	return ch
}

// TailWait implements RangeReadAPI: it parks until hosted range rangeIdx's
// local frontier (its next-unfilled LId) passes cursor, or maxWait
// elapses, and returns the current frontier either way — the long-poll
// never errors on timeout; the caller compares the returned frontier
// against its cursor. A tailing client parks here instead of polling: the
// head of the log advances exactly when the laggard range's frontier does,
// so waiting on that frontier replaces the fixed poll tick.
func (m *Maintainer) TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error) {
	m.TailWaits.Inc()
	f, err := m.RangeFrontier(rangeIdx)
	if err != nil {
		return 0, err
	}
	if cursor == 0 || f > cursor {
		return f, nil
	}
	if maxWait <= 0 {
		maxWait = defaultTailWait
	}
	start := time.Now()
	deadline := start.Add(maxWait)
	for {
		// Grab the channel before re-checking the frontier: an advance
		// between the check and the select closes this channel, so no
		// wakeup is lost.
		ch := m.waitChan()
		if f, err = m.RangeFrontier(rangeIdx); err != nil {
			return 0, err
		}
		if f > cursor {
			if w := m.tailWake; w != nil {
				w.ObserveSince(start)
			}
			return f, nil
		}
		if !park(ch, deadline) {
			return m.RangeFrontier(rangeIdx)
		}
	}
}

// park waits for ch to close; false when the deadline came first.
func park(ch <-chan struct{}, deadline time.Time) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	timer := time.NewTimer(remain)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return false
	}
}

// ReadRange implements RangeReadAPI: every record this maintainer hosts in
// [q.Lo, q.Hi] (restricted to one range when q.Range >= 0), ascending, as
// one batch. Records come from the tail ring when the reader is close to
// the frontier; a ring miss falls back to one bounded store scan per
// round-robin block, never a full-log scan. The response stops early at a
// count/byte budget or at a hosted range's local frontier; CoveredHi tells
// the client where to resume.
func (m *Maintainer) ReadRange(q RangeQuery) (RangeResult, error) {
	// Thin wrapper so the inner walk stays closure-free: a deferred metrics
	// closure would capture the result slice and heap-box it, costing
	// allocations on the per-window hot path the alloc-budget test pins.
	start := time.Now()
	m.RangeReads.Inc()
	res, err := m.readRange(q)
	m.RangeRecords.Add(uint64(len(res.Records)))
	if h := m.rangeBatch; h != nil {
		h.Observe(float64(len(res.Records)))
	}
	if h := m.readLatency; h != nil {
		h.ObserveSinceEx(start, uint64(q.Trace.T))
	}
	if q.Trace.Sampled() {
		tc := q.Trace
		tc.Hop(trace.Default(), "read.range", 0, trace.Outcome(err, "error"), res.CoveredHi, len(res.Records))
	}
	return res, err
}

func (m *Maintainer) readRange(q RangeQuery) (RangeResult, error) {
	// A collected position is absent here, tail ring included: the walk
	// starts above the store's collected bound.
	collected, _ := m.store.Collected()
	lo, hi := max(q.Lo, collected+1), q.Hi
	res := RangeResult{CoveredHi: lo - 1}
	if hi < lo {
		res.CoveredHi = hi
		return res, nil
	}
	maxRecs := q.MaxRecords
	if maxRecs <= 0 {
		maxRecs = defaultRangeMaxRecords
	}
	maxBytes := q.MaxBytes
	if maxBytes <= 0 {
		maxBytes = defaultRangeMaxBytes
	}

	// Snapshot hosted stored frontiers once: a range's frontier only covers
	// slots whose store write already returned, so records strictly below
	// it are densely present in the store and the walk below needs no
	// further coordination. Indexed by range with 0 = not hosted (LIds are
	// 1-based, so a hosted range's frontier is never 0).
	p := m.cfg.Placement
	var fbuf [16]uint64
	frontiers := fbuf[:]
	if p.NumMaintainers > len(fbuf) {
		frontiers = make([]uint64, p.NumMaintainers)
	}
	hostedRanges := 0
	m.mu.Lock()
	for r, st := range m.hosted {
		if q.Range >= 0 && r != q.Range {
			continue
		}
		frontiers[r] = st.frontier()
		hostedRanges++
	}
	m.mu.Unlock()
	if hostedRanges == 0 {
		return res, fmt.Errorf("%w: range %d at maintainer %d", ErrNotReplica, q.Range, m.cfg.Index)
	}

	want := int(hi - lo + 1)
	if want > maxRecs {
		want = maxRecs
	}
	// Only a fraction of [lo,hi] is hosted here; presize for this
	// maintainer's share of the interval's blocks, not the whole window.
	chunks := (hi-1)/p.BatchSize - (lo-1)/p.BatchSize + 1
	share := (chunks*uint64(hostedRanges)/uint64(p.NumMaintainers) + 1) * p.BatchSize
	if uint64(want) > share {
		want = int(share)
	}
	out := make([]*core.Record, 0, want)
	bytes := 0

	for chunk := (lo - 1) / p.BatchSize; chunk <= (hi-1)/p.BatchSize; chunk++ {
		owner := int(chunk % uint64(p.NumMaintainers))
		blockLo := chunk*p.BatchSize + 1
		blockHi := blockLo + p.BatchSize - 1
		if blockLo < lo {
			blockLo = lo
		}
		if blockHi > hi {
			blockHi = hi
		}
		next := frontiers[owner]
		if next == 0 {
			// Another maintainer's block: trivially covered from this
			// maintainer's point of view.
			res.CoveredHi = blockHi
			continue
		}
		limit := blockHi
		frontierCut := false
		if next <= limit {
			if next <= blockLo {
				// Nothing of this block exists here yet.
				res.Records = out
				return res, nil
			}
			limit = next - 1
			frontierCut = true
		}
		// Serve the block from the tail ring while it hits, then one
		// bounded store scan for the cold remainder.
		lid := blockLo
		for m.tail != nil && lid <= limit {
			rec := m.tail.get(lid)
			if rec == nil {
				break
			}
			m.TailCacheHits.Inc()
			out = append(out, rec)
			bytes += core.EncodedSize(rec)
			res.CoveredHi = lid
			if len(out) >= maxRecs || bytes >= maxBytes {
				res.Records = out
				return res, nil
			}
			lid++
		}
		if lid <= limit {
			if m.tail != nil {
				m.TailCacheMisses.Inc()
			}
			m.StoreScans.Inc()
			var truncated bool
			var err error
			out, bytes, res.CoveredHi, truncated, err = m.scanBlock(lid, limit, out, bytes, maxRecs, maxBytes, res.CoveredHi)
			if err != nil {
				return res, err
			}
			if truncated {
				res.Records = out
				return res, nil
			}
			res.CoveredHi = limit
		}
		if frontierCut {
			res.Records = out
			return res, nil
		}
	}
	res.Records = out
	res.CoveredHi = hi
	return res, nil
}

// scanBlock runs the cold-path store scan for one block. It lives in its
// own function because the scan callback escapes through the store
// interface: a closure declared inside readRange would heap-box every
// captured local on every call, including the warm calls the tail ring
// serves without ever scanning.
func (m *Maintainer) scanBlock(lo, hi uint64, out []*core.Record, bytes, maxRecs, maxBytes int, covered uint64) ([]*core.Record, int, uint64, bool, error) {
	truncated := false
	err := m.store.Scan(lo, hi, func(r *core.Record) bool {
		out = append(out, r)
		bytes += core.EncodedSize(r)
		covered = r.LId
		if len(out) >= maxRecs || bytes >= maxBytes {
			truncated = true
			return false
		}
		return true
	})
	return out, bytes, covered, truncated, err
}

// MultiRead implements RangeReadAPI: the hosted records at the given LIds,
// in input order, as one batch — the retrieval half of an indexer-resolved
// tag read. Positions this maintainer does not host fail the call (the
// client routes by placement); positions it hosts but does not (yet) store
// are silently absent from the response, and the client falls back to the
// single-record path — with its past-head waiting — for them.
func (m *Maintainer) MultiRead(lids []uint64) ([]*core.Record, error) {
	if h := m.readLatency; h != nil {
		defer h.ObserveSince(time.Now())
	}
	m.MultiReads.Inc()
	out := make([]*core.Record, 0, len(lids))
	bytes := 0
	collected, _ := m.store.Collected()
	for _, lid := range lids {
		if lid == 0 {
			return nil, core.ErrNoSuchRecord
		}
		if m.rangeOf(lid) == nil {
			return nil, fmt.Errorf("%w: %d", ErrWrongMaintainer, lid)
		}
		if lid <= collected {
			continue // collected: absent, tail ring or not
		}
		var rec *core.Record
		if m.tail != nil {
			rec = m.tail.get(lid)
		}
		if rec != nil {
			m.TailCacheHits.Inc()
		} else {
			if m.tail != nil {
				m.TailCacheMisses.Inc()
			}
			var err error
			if rec, err = m.store.Get(lid); errors.Is(err, core.ErrNoSuchRecord) {
				continue // absent here; the client's fallback handles it
			} else if err != nil {
				// Anything else — a corrupt copy, a closed store — is this
				// member's fault, not the position's: fail, so the session
				// reads from the next replica.
				return nil, err
			}
		}
		out = append(out, rec)
		if bytes += core.EncodedSize(rec); bytes >= defaultRangeMaxBytes {
			break // budget; the client fetches the rest on fallback
		}
	}
	return out, nil
}
