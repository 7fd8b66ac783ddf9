package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// tailer is a subscriber: it tails a log from a position, checks that the
// records arrive in LId order without gaps and with good checksums, and
// records for each the time since its intended append.
type tailer struct {
	done    chan struct{}
	started time.Time
	samples []sample
	next    atomic.Uint64 // the LId the next delivered record must carry
	bad     []string
	err     error
}

type tailSource interface {
	Tail(ctx context.Context, fromLId uint64, fn func(*core.Record) bool) error
}

// startTailer tails src from LId from until ctx is cancelled. keep, when
// set, is called for every well-formed record and says whether its delivery
// time counts (a datacenter's log also holds records the benchmark did not
// time).
func startTailer(ctx context.Context, src tailSource, from uint64, keep func(*core.Record, stamp) bool) *tailer {
	t := &tailer{done: make(chan struct{}), started: time.Now()}
	t.next.Store(from)
	go func() {
		defer close(t.done)
		err := src.Tail(ctx, from, func(r *core.Record) bool {
			now := time.Now()
			if want := t.next.Load(); r.LId != want {
				t.complain("tail delivered LId %d, want %d", r.LId, want)
			}
			t.next.Store(r.LId + 1)
			st, ok := readStamp(r.Body)
			if !ok {
				t.complain("tail delivered LId %d with a bad checksum", r.LId)
				return true
			}
			if keep == nil || keep(r, st) {
				t.samples = append(t.samples, sample{now.Sub(t.started), now.Sub(time.Unix(0, st.intended))})
			}
			return true
		})
		if err != nil && ctx.Err() == nil {
			t.err = err
		}
	}()
	return t
}

// deliveredSince counts the timed records delivered from since after the
// tailer started: the part of a traced run's phase that was recorded.
func (t *tailer) deliveredSince(since time.Duration) int {
	n := 0
	for _, s := range t.samples {
		if s.at >= since {
			n++
		}
	}
	return n
}

func (t *tailer) complain(format string, args ...any) {
	if len(t.bad) < 8 {
		t.bad = append(t.bad, fmt.Sprintf(format, args...))
	}
}

// tailCatchUp is how long a subscriber gets to be handed what was in the
// log when its phase ended. It needs milliseconds; the limit only has to
// outlast a stall of the host.
const tailCatchUp = 10 * time.Second

// finishTailer waits until the subscriber has been handed every record up
// to the current head of the log, stops it, and turns what it saw wrong
// into violations. Records acknowledged above the head (a gap below them is
// still open) are not deliverable yet and are not waited for.
func (rc *runCtx) finishTailer(t *tailer, head func() (uint64, error), cancel context.CancelFunc) {
	h, err := head()
	if err != nil {
		rc.violate("reading the head for the subscriber: %v", err)
	}
	deadline := time.Now().Add(tailCatchUp)
	for err == nil && t.next.Load() <= h && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-t.done
	if t.err != nil {
		rc.violate("subscriber: %v", t.err)
	}
	if got := t.next.Load(); got <= h {
		rc.violate("subscriber was delivered up to LId %d, head is %d", got-1, h)
	}
	for _, b := range t.bad {
		rc.violate("%s", b)
	}
}
