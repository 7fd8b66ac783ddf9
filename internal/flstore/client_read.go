package flstore

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// tailChunk bounds one scatter-gather window a tailing reader requests per
// wake, so a reader far behind the head catches up in bounded batches.
const tailChunk = 4096

// clientTailWait bounds one long-poll round issued by Tail/WaitHead. It is
// shorter than the server's default so context cancellation and failover
// re-routing are observed promptly; a parked reader simply re-parks.
const clientTailWait = 25 * time.Millisecond

// ReadRange returns the records at positions [lo, hi] in LId order, with hi
// clamped to the head of the log (hi 0 means "up to the head"). One
// range-read RPC goes to each owning maintainer concurrently and the
// responses merge into the result by placement arithmetic alone — position
// lid lands at index lid−lo — with no sort and no per-record routing. §5.4
// guarantees positions at or below the head are gap-free, so the merged
// window has no holes once every owner has answered.
func (c *Client) ReadRange(lo, hi uint64) ([]*core.Record, error) {
	return c.ReadRangeCtx(context.Background(), lo, hi)
}

// ReadRangeCtx is ReadRange with cancellation: ctx aborts the per-owner
// continuation loops and the single-record safety net (including its
// past-head backoff) between round trips, returning ctx.Err().
func (c *Client) ReadRangeCtx(ctx context.Context, lo, hi uint64) ([]*core.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if lo == 0 {
		lo = 1
	}
	// The root span covers head resolution plus the scatter-gather fan-out;
	// the child context rides each RangeQuery so maintainer-side spans
	// parent to it.
	root, rtc := trace.BeginRoot(trace.New(), "client.read")
	head, err := c.HeadExact()
	if err != nil {
		root.Finish(trace.Default(), "error", 0, 0)
		return nil, err
	}
	if hi == 0 || hi > head {
		hi = head
	}
	if hi < lo {
		root.Finish(trace.Default(), "", hi, 0)
		return nil, nil
	}
	recs, err := c.readRange(ctx, rtc, lo, hi)
	root.Finish(trace.Default(), trace.Outcome(err, "error"), hi, len(recs))
	return recs, err
}

// readRange is ReadRange after head clamping: hi must not exceed the head
// of the log.
func (c *Client) readRange(ctx context.Context, tc trace.Ctx, lo, hi uint64) ([]*core.Record, error) {
	out := make([]*core.Record, hi-lo+1)
	if err := c.gather(ctx, tc, lo, hi, out); err != nil {
		return nil, err
	}
	// Safety net: any position still missing (a lagging follower answered
	// for an evicted owner) is fetched through the single-record path with
	// its own failover and past-head waiting. Positions ≤ head exist
	// somewhere, so this terminates.
	for i, r := range out {
		if r == nil {
			rec, err := c.ReadLIdCtx(ctx, lo+uint64(i))
			if err != nil {
				return nil, err
			}
			out[i] = rec
		}
	}
	return out, nil
}

// gather drains [lo, hi] into out (position lid at out[lid-lo]). The window
// is cut at the journal's epoch boundaries and every slice runs the same
// scatter-gather under its own epoch's placement and member set, so a read
// across an elastic flip costs one more round of range reads, not a
// different path.
func (c *Client) gather(ctx context.Context, tc trace.Ctx, lo, hi uint64, out []*core.Record) error {
	ei, err := epochIndexOf(c.epochs, lo)
	if err != nil {
		return err
	}
	for ; lo <= hi; ei++ {
		end := hi
		if ei+1 < len(c.epochs) && c.epochs[ei+1].FirstLId <= hi {
			end = c.epochs[ei+1].FirstLId - 1
		}
		if err := c.gatherEpoch(ctx, tc, ei, lo, end, out[:end-lo+1]); err != nil {
			return err
		}
		out, lo = out[end-lo+1:], end+1
	}
	return nil
}

// gatherEpoch is gather for a window inside epoch ei: one range-read worker
// per owning range of that epoch.
func (c *Client) gatherEpoch(ctx context.Context, tc trace.Ctx, ei int, lo, hi uint64, out []*core.Record) error {
	owners := ownersIn(c.epochs[ei].Placement, lo, hi)
	if len(owners) == 1 {
		// Single-owner windows (small ranges, per-partition readers)
		// stay on the caller's goroutine.
		return c.rangeFromOwner(ctx, tc, ei, owners[0], lo, hi, out)
	}
	// One worker per extra owner; the first owner's share drains on
	// the caller's goroutine while the others run.
	var wg sync.WaitGroup
	errs := make([]error, len(owners)-1)
	for i, owner := range owners[1:] {
		wg.Add(1)
		go func(i, owner int) {
			defer wg.Done()
			errs[i] = c.rangeFromOwner(ctx, tc, ei, owner, lo, hi, out)
		}(i, owner)
	}
	err := c.rangeFromOwner(ctx, tc, ei, owners[0], lo, hi, out)
	wg.Wait()
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ownersIn lists the maintainer indices owning at least one position in
// [lo, hi] under placement p.
func ownersIn(p Placement, lo, hi uint64) []int {
	n := uint64(p.NumMaintainers)
	first := (lo - 1) / p.BatchSize
	last := (hi - 1) / p.BatchSize
	if last-first+1 >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, last-first+1)
	for chunk := first; chunk <= last; chunk++ {
		owner := int(chunk % n)
		dup := false
		for _, o := range out {
			if o == owner {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, owner)
		}
	}
	return out
}

// rangeFromOwner drains the share of [lo, hi] that range owner of epoch ei
// holds into out (position lid at out[lid-lo]), following CoveredHi
// continuations until the range is covered. Each RPC routes by readAt (the
// latest epoch fails over across the owning group); a response that makes
// no progress (a lagging follower serving an evicted owner's range) stops
// the worker and leaves the holes to readRange's single-record safety net
// rather than reporting a healthy-but-behind member as failed.
func (c *Client) rangeFromOwner(ctx context.Context, tc trace.Ctx, ei, owner int, lo, hi uint64, out []*core.Record) error {
	cursor := lo
	for cursor <= hi {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := RangeQuery{Lo: cursor, Hi: hi, Range: owner, Trace: tc}
		var res RangeResult
		err := c.readAt(ei, owner, func(m MaintainerAPI) (err error) {
			res, err = m.ReadRange(q)
			return err
		})
		if err != nil {
			return err
		}
		for _, r := range res.Records {
			if r.LId >= lo && r.LId <= hi {
				out[r.LId-lo] = r
			}
		}
		if res.CoveredHi >= hi || res.CoveredHi < cursor {
			return nil
		}
		cursor = res.CoveredHi + 1
	}
	return nil
}

// ReadRangeOwned returns the records owned by maintainer owner within
// [lo, hi] (hi clamped to the head of the log; 0 = head), ascending — the
// per-partition surface partitioned consumers (stream reader groups) use.
// Partitions are the latest epoch's ranges: within that epoch one range-read
// RPC per continuation goes to the owning group, and the part of the window
// an earlier epoch laid out is gathered whole. Every owned position at or
// below the clamped hi is guaranteed present in the result.
func (c *Client) ReadRangeOwned(owner int, lo, hi uint64) ([]*core.Record, error) {
	if owner < 0 || owner >= c.placement.NumMaintainers {
		return nil, fmt.Errorf("flstore: partition %d out of range", owner)
	}
	if lo == 0 {
		lo = 1
	}
	head, err := c.HeadExact()
	if err != nil {
		return nil, err
	}
	if hi == 0 || hi > head {
		hi = head
	}
	if hi < lo {
		return nil, nil
	}
	window := make([]*core.Record, hi-lo+1)
	last := len(c.epochs) - 1
	cut := max(lo, c.epochs[last].FirstLId)
	if cut > lo {
		if err := c.gather(context.Background(), trace.Ctx{}, lo, min(cut-1, hi), window); err != nil {
			return nil, err
		}
	}
	if cut <= hi {
		if err := c.rangeFromOwner(context.Background(), trace.Ctx{}, last, owner, cut, hi, window[cut-lo:]); err != nil {
			return nil, err
		}
	}
	// Walk the owner's blocks in [lo, hi]; any owned position still
	// missing is fetched through the single-record path.
	p := c.placement
	n := uint64(p.NumMaintainers)
	out := make([]*core.Record, 0, len(window)/int(n)+int(p.BatchSize))
	for chunk := (lo - 1) / p.BatchSize; chunk <= (hi-1)/p.BatchSize; chunk++ {
		if int(chunk%n) != owner {
			continue
		}
		blockLo, blockHi := chunk*p.BatchSize+1, (chunk+1)*p.BatchSize
		if blockLo < lo {
			blockLo = lo
		}
		if blockHi > hi {
			blockHi = hi
		}
		for lid := blockLo; lid <= blockHi; lid++ {
			rec := window[lid-lo]
			if rec == nil {
				if rec, err = c.ReadLId(lid); err != nil {
					return nil, err
				}
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// ReadLIds returns the records at the given positions, in input order — the
// retrieval half of an indexer-resolved tag read. Positions are grouped by
// epoch and owning range and fetched with one MultiRead RPC per group,
// concurrently; anything a response omits (not yet replicated at the member
// that answered) falls back to the single-record path.
func (c *Client) ReadLIds(lids []uint64) ([]*core.Record, error) {
	return c.ReadLIdsCtx(context.Background(), lids)
}

// ReadLIdsCtx is ReadLIds with cancellation: ctx aborts the single-record
// fallback loop (and its past-head backoff) between round trips, returning
// ctx.Err().
func (c *Client) ReadLIdsCtx(ctx context.Context, lids []uint64) ([]*core.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]*core.Record, len(lids))
	if len(lids) > 1 {
		type rangeKey struct{ ei, owner int }
		byOwner := make(map[rangeKey][]uint64)
		for _, lid := range lids {
			// A position no epoch covers (0) is left to the single-record
			// path, which reports it.
			if ei, err := epochIndexOf(c.epochs, lid); err == nil {
				k := rangeKey{ei, c.epochs[ei].Placement.Owner(lid)}
				byOwner[k] = append(byOwner[k], lid)
			}
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		got := make(map[uint64]*core.Record, len(lids))
		for k, group := range byOwner {
			wg.Add(1)
			go func(k rangeKey, group []uint64) {
				defer wg.Done()
				recs, err := c.multiReadOwner(k.ei, k.owner, group)
				if err != nil {
					return // the single-record fallback covers the group
				}
				mu.Lock()
				for _, r := range recs {
					got[r.LId] = r
				}
				mu.Unlock()
			}(k, group)
		}
		wg.Wait()
		for i, lid := range lids {
			out[i] = got[lid]
		}
	}
	for i, lid := range lids {
		if out[i] == nil {
			rec, err := c.ReadLIdCtx(ctx, lid)
			if err != nil {
				return nil, err
			}
			out[i] = rec
		}
	}
	return out, nil
}

// multiReadOwner issues one MultiRead against range owner of epoch ei,
// routed by readAt.
func (c *Client) multiReadOwner(ei, owner int, lids []uint64) (recs []*core.Record, err error) {
	err = c.readAt(ei, owner, func(m MaintainerAPI) (err error) {
		recs, err = m.MultiRead(lids)
		return err
	})
	return recs, err
}

// tailWaitRange parks at rangeIdx's group until the range's local frontier
// passes cursor or maxWait elapses, with read failover across the group.
func (c *Client) tailWaitRange(rangeIdx int, cursor uint64, maxWait time.Duration) error {
	return c.readAt(len(c.epochs)-1, rangeIdx, func(m MaintainerAPI) error {
		_, err := m.TailWait(rangeIdx, cursor, maxWait)
		return err
	})
}

// waitHead blocks until the head of the log reaches cursor, ctx is
// cancelled, or deadline passes (zero deadline = unbounded), and returns
// the last head observed. The head advances exactly when the laggard
// range's frontier does, so each round parks on that range's TailWait
// long-poll instead of sleeping a fixed tick.
func (c *Client) waitHead(ctx context.Context, cursor uint64, deadline time.Time) (uint64, error) {
	for {
		next, err := c.session.Frontiers()
		if err != nil {
			return 0, err
		}
		head := Head(next)
		if cursor == 0 || head >= cursor {
			return head, nil
		}
		if err := ctx.Err(); err != nil {
			return head, err
		}
		wait := clientTailWait
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				return head, nil
			}
			if remain < wait {
				wait = remain
			}
		}
		// Park at the first range whose frontier hasn't passed the
		// cursor; when it has, the loop recomputes the head (other
		// ranges kept advancing concurrently).
		lag := 0
		for r, n := range next {
			if n <= cursor {
				lag = r
				break
			}
		}
		if err := c.tailWaitRange(lag, cursor, wait); err != nil {
			return head, err
		}
	}
}

// WaitHead blocks until the head of the log reaches at least lid or the
// timeout elapses (timeout 0 = unbounded), returning the last head
// observed — callers compare it against lid. It subscribes to frontier
// advances (TailWait) rather than polling, so the wake-up latency is the
// append-to-notify path, not a poll interval.
func (c *Client) WaitHead(lid uint64, timeout time.Duration) (uint64, error) {
	return c.WaitHeadCtx(context.Background(), lid, timeout)
}

// WaitHeadCtx is WaitHead with cancellation: ctx aborts the frontier
// subscription loop between long-poll rounds, returning the last head
// observed alongside ctx.Err().
func (c *Client) WaitHeadCtx(ctx context.Context, lid uint64, timeout time.Duration) (uint64, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	return c.waitHead(ctx, lid, deadline)
}
