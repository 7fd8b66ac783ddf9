package chariots

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vclock"
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

// countingReceiver counts the shipments that reach a datacenter, by kind.
type countingReceiver struct {
	ReceiverAPI
	withRecords, tableOnly atomic.Int64
}

func (c *countingReceiver) Deliver(snap Snapshot) error {
	if len(snap.Records) == 0 {
		c.tableOnly.Add(1)
	} else {
		c.withRecords.Add(1)
	}
	return c.ReceiverAPI.Deliver(snap)
}

// startPairNoAntiEntropy starts two connected in-process datacenters whose
// senders' anti-entropy tick is out of reach, so every table-only shipment
// the returned counters see was prompted by a change. in[i] counts what
// reaches datacenter i.
func startPairNoAntiEntropy(t *testing.T) (dcs [2]*Datacenter, in [2]*countingReceiver) {
	t.Helper()
	for i := range dcs {
		dc, err := New(fastCfg(core.DCID(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range dc.senders {
			s.antiEntropy = time.Hour
		}
		dcs[i] = dc
	}
	for i, dc := range dcs {
		// Both of the peer's senders ship through one counter.
		in[i] = &countingReceiver{ReceiverAPI: dc.Receivers()[0]}
		dcs[1-i].ConnectTo(core.DCID(i), []ReceiverAPI{in[i]})
	}
	for _, dc := range dcs {
		dc.Start()
		t.Cleanup(dc.Stop)
	}
	return dcs, in
}

// tablesAgree reports whether both awareness tables hold want in every row:
// each datacenter has applied everything and knows the other has too.
func tablesAgree(dcs [2]*Datacenter, want vclock.Vector) bool {
	for _, dc := range dcs {
		for row := 0; row < 2; row++ {
			if got := dc.ATable().Row(core.DCID(row)); !got.Covers(want) {
				return false
			}
		}
	}
	return true
}

// Change-driven table shipping alone must carry awareness to convergence —
// each side learns what the other applied with no periodic heartbeat — and
// must then stop: two idle datacenters do not ping-pong tables.
func TestTableShipmentsConvergeThenQuiesce(t *testing.T) {
	dcs, in := startPairNoAntiEntropy(t)
	const fromA, fromB = 200, 100
	for i := 0; i < fromA; i++ {
		dcs[0].AppendAsync([]byte("a"), nil)
		if i < fromB {
			dcs[1].AppendAsync([]byte("b"), nil)
		}
	}
	want := vclock.Vector{fromA, fromB}
	deadline := time.Now().Add(handoffWatchdog)
	for !tablesAgree(dcs, want) {
		if time.Now().After(deadline) {
			t.Fatalf("tables never converged to %v without the anti-entropy tick:\ndc0 %v\ndc1 %v",
				want, dcs[0].ATable().Snapshot(), dcs[1].ATable().Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	// Fully converged tables have nothing left to teach each other: all
	// that may still arrive is what was in flight.
	before := in[0].tableOnly.Load() + in[1].tableOnly.Load()
	time.Sleep(100 * time.Millisecond)
	if extra := in[0].tableOnly.Load() + in[1].tableOnly.Load() - before; extra > 4 {
		t.Errorf("%d table-only shipments in 100 ms between converged, idle datacenters: tables are ping-ponging", extra)
	}
	if in[0].withRecords.Load() == 0 || in[1].withRecords.Load() == 0 {
		t.Error("a datacenter received no record shipment")
	}
}

func tokenPasses(dc *Datacenter) uint64 {
	var n uint64
	for _, q := range dc.queues {
		n += q.passes.Value()
	}
	return n
}

// remoteRecord is host's record toid as a receiver would get it, depending
// on (depHost, depTOId) when depTOId is non-zero.
func remoteRecord(host core.DCID, toid uint64, depHost core.DCID, depTOId uint64) Snapshot {
	rec := &core.Record{Host: host, TOId: toid, Body: []byte("r")}
	if depTOId != 0 {
		rec.Deps = []core.Dep{{DC: depHost, TOId: depTOId}}
	}
	return Snapshot{From: host, Records: []*core.Record{rec}}
}

// One dependency-blocked record and no input must not keep the token
// moving: the ring makes a revolution or two while the record finds its
// queue, then the holder waits for input. (With the 200 µs idle timer, and
// the idle wait skipped whenever something was parked, the ring made tens
// of thousands of passes in this window.) Once the dependency is delivered
// the record applies with no timer to wait out.
func TestTokenRestsOnBlockedRecord(t *testing.T) {
	const queues = 4
	for _, carry := range []bool{false, true} {
		t.Run(fmt.Sprintf("carry=%v", carry), func(t *testing.T) {
			dc := startDC(t, Config{NumDCs: 3, Queues: queues, CarryDeferred: carry})
			// The fresh token makes exactly one revolution, then rests.
			deadline := time.Now().Add(handoffWatchdog)
			for tokenPasses(dc) < queues {
				if time.Now().After(deadline) {
					t.Fatalf("token made %d passes at start-up, want %d", tokenPasses(dc), queues)
				}
				time.Sleep(time.Millisecond)
			}
			rx := dc.Receivers()[0]
			if err := rx.Deliver(remoteRecord(1, 1, 2, 1)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(200 * time.Millisecond)
			if got := tokenPasses(dc) - queues; got > 2*queues {
				t.Errorf("token made %d passes in 200 ms over one blocked record and no input, want at most two revolutions (%d)", got, 2*queues)
			}
			if dc.Applied().Get(1) != 0 {
				t.Fatal("blocked record applied before its dependency")
			}
			if err := rx.Deliver(remoteRecord(2, 1, 0, 0)); err != nil {
				t.Fatal(err)
			}
			if !dc.WaitForTOId(1, 1, handoffWatchdog) {
				t.Fatal("blocked record never applied after its dependency arrived")
			}
		})
	}
}

// Input reaching a queue that does not hold the token is applied without
// any timer: the pump's wake-up moves the token to it. The filter deals
// batches round-robin, so over 4×10 acknowledged appends every queue of the
// ring has been the non-holder with the input.
func TestRingAppliesInputAtNonHolder(t *testing.T) {
	const queues = 4
	dc := startDC(t, Config{NumDCs: 1, Queues: queues})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 10*queues; i++ {
			if _, err := dc.Append([]byte("x"), nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(handoffWatchdog):
		t.Fatalf("appends stalled after %d applied: a wake-up was lost", dc.AppliedCount())
	}
	for i, q := range dc.queues {
		if q.Applied.Value() == 0 {
			t.Errorf("queue %d applied nothing", i)
		}
	}
}
