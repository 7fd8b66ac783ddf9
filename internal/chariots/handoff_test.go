package chariots

import (
	"testing"
	"time"

	"repro/internal/core"
)

// The hand-off rules of the pipeline's waiting stages (DESIGN.md §3.3) are
// pinned here by counts and blocking, never by latency thresholds: the
// only clocks are the watchdogs that turn a lost wake-up into a failure.
const handoffWatchdog = 10 * time.Second

func localBatch(n int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = &core.Record{Host: 0}
	}
	return recs
}

// newTestBatcher returns a one-filter batcher whose downstream inbox holds
// exactly one batch, so the test decides when the batcher's send unblocks.
func newTestBatcher(t *testing.T, threshold, inbox int) (*Batcher, chan []*core.Record) {
	t.Helper()
	routing, err := NewFilterRouting(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	filter := make(chan []*core.Record, 1)
	in := make(chan []*core.Record, inbox)
	return NewBatcher("Batcher", nil, in, routing, []chan<- []*core.Record{filter}, threshold), filter
}

func runStage(t *testing.T, run func(stop <-chan struct{})) {
	t.Helper()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { defer close(done); run(stop) }()
	t.Cleanup(func() { close(stop); <-done })
}

func recvBatch(t *testing.T, ch <-chan []*core.Record) []*core.Record {
	t.Helper()
	select {
	case b := <-ch:
		return b
	case <-time.After(handoffWatchdog):
		t.Fatal("no batch handed downstream")
		return nil
	}
}

// A lone record is handed to the filter with no further input and no timer
// to wait out: the inbox running dry is the flush signal.
func TestBatcherForwardsLoneRecord(t *testing.T) {
	b, filter := newTestBatcher(t, 256, 4)
	runStage(t, b.run)
	b.In() <- localBatch(1)
	if got := len(recvBatch(t, filter)); got != 1 {
		t.Fatalf("lone record came out as a batch of %d", got)
	}
}

// Under backlog the threshold shapes the batches: with the filter inbox
// held full and 16 two-record batches queued, the batcher hands on exactly
// four batches of the threshold's eight records — the inbox never ran dry,
// so nothing was flushed short.
func TestBatcherFillsToThresholdUnderBacklog(t *testing.T) {
	const threshold, injected, per = 8, 16, 2
	b, filter := newTestBatcher(t, threshold, injected)
	filter <- nil // hold the downstream inbox full
	for i := 0; i < injected; i++ {
		b.In() <- localBatch(per)
	}
	runStage(t, b.run)
	if held := recvBatch(t, filter); held != nil {
		t.Fatalf("placeholder overtaken by a batch of %d", len(held))
	}
	for i := 0; i < injected*per/threshold; i++ {
		if got := len(recvBatch(t, filter)); got != threshold {
			t.Fatalf("batch %d holds %d records, want the threshold %d", i, got, threshold)
		}
	}
	select {
	case extra := <-filter:
		t.Fatalf("a further batch of %d records followed the backlog", len(extra))
	default:
	}
}
