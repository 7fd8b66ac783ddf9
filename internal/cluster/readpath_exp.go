package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
)

// The read-path experiment: a closed-loop tail (each record is appended
// only after the tailing consumer has seen the previous one — the
// append→visible latency expressed as a rate) measured on the client's
// push subscription and on a poll loop a reader without it would write
// (pollTail), plus a bulk read of the resulting log via one scatter-gather
// ReadRange versus single-record round trips. Every measured mode is
// capped by a wall-clock budget; a mode that does not reach readPathRecords
// within it reports the rate it sustained.
const (
	readPathMaintainers = 3
	readPathRecords     = 10_000
	readPathRecordSize  = 128
)

// ReadPathResult is the measured comparison. Rates are records/second.
type ReadPathResult struct {
	Maintainers     int     `json:"maintainers"`
	Records         int     `json:"records"`
	TailPushRecords int     `json:"tail_push_records"`
	TailPushPerSec  float64 `json:"tail_push_recs_per_sec"`
	TailPollRecords int     `json:"tail_poll_records"`
	TailPollPerSec  float64 `json:"tail_poll_recs_per_sec"`
	// TailSpeedup is push/poll — the acceptance bar is ≥ 5×.
	TailSpeedup      float64 `json:"tail_speedup"`
	RangeReadPerSec  float64 `json:"range_read_recs_per_sec"`
	SingleReadPerSec float64 `json:"single_read_recs_per_sec"`
	RangeSpeedup     float64 `json:"range_speedup"`
	// ReadScaling is the replica-count sweep: aggregate hot-range read
	// throughput as the group size R grows, every replica serving valid
	// reads locally under the invalidation protocol.
	ReadScaling []ReadScalingPoint `json:"read_scaling,omitempty"`
	// ReadScalingX is the largest-R/smallest-R aggregate throughput ratio
	// — the acceptance bar is ≥ 2× for R 1→3.
	ReadScalingX float64 `json:"read_scaling_x,omitempty"`
}

// ReadScalingPoint is one point of the replica read-scaling sweep.
type ReadScalingPoint struct {
	Replication int     `json:"replication"`
	Records     int     `json:"records"`
	ReadsPerSec float64 `json:"reads_per_sec"`
}

// readPathSpec wires client→rpc→maintainers in-process: real dispatch and
// codec work on every hop, so the poll/push difference reflects the
// protocol, not the transport.
var readPathSpec = RigSpec{Maintainers: readPathMaintainers, Round: 8}

// tailFunc is the shape of Client.Tail: deliver the log from an LId on, in
// order, until ctx ends or fn returns false.
type tailFunc func(ctx context.Context, fromLId uint64, fn func(*core.Record) bool) error

// pollInterval is the tick of the poll baseline.
const pollInterval = 2 * time.Millisecond

// pollTail is the baseline the push subscription is measured against: the
// tail loop over the public read API — exact head, one scatter-gather read
// of whatever is new, sleep a tick.
func pollTail(ctx context.Context, c *flstore.Client, cursor uint64, fn func(*core.Record) bool) error {
	for {
		head, err := c.HeadExact()
		if err != nil {
			return err
		}
		if head >= cursor {
			recs, err := c.ReadRangeCtx(ctx, cursor, head)
			if err != nil {
				return err
			}
			for _, rec := range recs {
				if !fn(rec) {
					return nil
				}
			}
			cursor = head + 1
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// runClosedLoopTail appends up to readPathRecords records one at a time and,
// after each append, waits until the tailing consumer has delivered every
// record the head of the log now covers. Placement is post-assignment —
// the dense prefix lags the append count by up to a round-robin cycle — so
// the producer gates on HeadExact rather than on its own count; waiting
// for its exact append to surface could deadlock on a not-yet-dense LId.
// tail is the consumer under test: with pollTail every head advance pays
// the poll tick before the consumer sees it; with Client.Tail the consumer
// is woken directly by the maintainer's frontier advance.
func runClosedLoopTail(c *flstore.Client, tail tailFunc, budget time.Duration) (records int, perSec float64, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	acks := make(chan uint64, readPathRecords) // never blocks the consumer
	tailErr := make(chan error, 1)
	go func() {
		tailErr <- tail(ctx, 1, func(r *core.Record) bool {
			acks <- r.LId
			return true
		})
	}()
	body := make([]byte, readPathRecordSize)
	start := time.Now()
	deadline := start.Add(budget)
	seen := uint64(0) // highest LId the consumer has delivered
	appended := 0
	for appended < readPathRecords && time.Now().Before(deadline) {
		if _, err := c.Append(body, nil); err != nil {
			return 0, 0, err
		}
		appended++
		head, err := c.HeadExact()
		if err != nil {
			return 0, 0, err
		}
		for seen < head {
			select {
			case lid := <-acks:
				seen = lid
			case err := <-tailErr:
				return 0, 0, fmt.Errorf("cluster: tail exited early: %v", err)
			case <-time.After(5 * time.Second):
				return 0, 0, fmt.Errorf("cluster: LId %d never became visible (head %d)", seen+1, head)
			}
		}
	}
	elapsed := time.Since(start)
	cancel()
	<-tailErr // consumer exits on context cancellation
	return int(seen), float64(seen) / elapsed.Seconds(), nil
}

// readPath measures the four read-path rates, each within budget d, then
// the replica read-scaling sweep (R = 1..3, d/2 per point), and writes the
// BENCH_readpath.json payload.
func readPath(d time.Duration, rep *Report) error {
	res := ReadPathResult{Maintainers: readPathMaintainers, Records: readPathRecords}
	rep.Data = &res

	// Closed-loop tail, push then poll, each on a fresh log.
	pushRig, err := NewRig(readPathSpec)
	if err != nil {
		return err
	}
	defer pushRig.Close()
	push := pushRig.Client
	if res.TailPushRecords, res.TailPushPerSec, err = runClosedLoopTail(push, push.Tail, d); err != nil {
		return err
	}

	pollRig, err := NewRig(readPathSpec)
	if err != nil {
		return err
	}
	defer pollRig.Close()
	res.TailPollRecords, res.TailPollPerSec, err = runClosedLoopTail(pollRig.Client, func(ctx context.Context, from uint64, fn func(*core.Record) bool) error {
		return pollTail(ctx, pollRig.Client, from, fn)
	}, d)
	if err != nil {
		return err
	}
	if res.TailPollPerSec > 0 {
		res.TailSpeedup = res.TailPushPerSec / res.TailPollPerSec
	}

	// Bulk read of the push run's log: one scatter-gather window versus
	// one round trip per record, both capped by the budget.
	head, err := push.HeadExact()
	if err != nil {
		return err
	}
	start := time.Now()
	recs, err := push.ReadRange(1, head)
	if err != nil {
		return err
	}
	if uint64(len(recs)) != head {
		return fmt.Errorf("cluster: range read returned %d of %d records", len(recs), head)
	}
	res.RangeReadPerSec = float64(len(recs)) / time.Since(start).Seconds()

	start = time.Now()
	deadline := start.Add(d)
	read := 0
	for lid := uint64(1); lid <= head && time.Now().Before(deadline); lid++ {
		if _, err := push.ReadLId(lid); err != nil {
			return err
		}
		read++
	}
	res.SingleReadPerSec = float64(read) / time.Since(start).Seconds()
	if res.SingleReadPerSec > 0 {
		res.RangeSpeedup = res.RangeReadPerSec / res.SingleReadPerSec
	}
	rep.Printf("tail  push %7.0f recs/s (%d recs) | poll %7.0f recs/s (%d recs) | speedup %.1fx (bar: >= 5x)\n",
		res.TailPushPerSec, res.TailPushRecords, res.TailPollPerSec, res.TailPollRecords, res.TailSpeedup)
	rep.Printf("read  range %6.0f recs/s | single %6.0f recs/s | speedup %.1fx\n",
		res.RangeReadPerSec, res.SingleReadPerSec, res.RangeSpeedup)

	// Replica read-scaling sweep: the same hot range read with R=1..3
	// group members, every valid replica answering locally under the
	// invalidation protocol.
	for _, r := range []int{1, 2, 3} {
		pt, err := readScalingPoint(r, d/2)
		if err != nil {
			return fmt.Errorf("cluster: read scaling R=%d: %w", r, err)
		}
		res.ReadScaling = append(res.ReadScaling, pt)
		rep.Printf("scale R=%d %7.0f reads/s (%d hot records)\n", pt.Replication, pt.ReadsPerSec, pt.Records)
	}
	first, last := res.ReadScaling[0], res.ReadScaling[len(res.ReadScaling)-1]
	res.ReadScalingX = last.ReadsPerSec / first.ReadsPerSec
	rep.Printf("scale R=%d -> R=%d aggregate read throughput %.1fx (bar: >= 2x)\n",
		first.Replication, last.Replication, res.ReadScalingX)
	rep.Metric("tail-speedup-x", res.TailSpeedup)
	rep.Metric("range-speedup-x", res.RangeSpeedup)
	rep.Metric("read-scaling-x", res.ReadScalingX)
	rep.Bar("push/poll tail speedup", res.TailSpeedup, ">=", 5)
	rep.Bar("R=1 -> R=3 read scaling", res.ReadScalingX, ">=", 2)
	return nil
}
