package chariots

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vclock"
)

// collectingReceiver records delivered snapshots for inspection.
type collectingReceiver struct {
	mu    sync.Mutex
	snaps []Snapshot
}

func (c *collectingReceiver) Deliver(snap Snapshot) error {
	c.mu.Lock()
	c.snaps = append(c.snaps, snap)
	c.mu.Unlock()
	return nil
}

func (c *collectingReceiver) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.snaps)
}

func (c *collectingReceiver) records() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.snaps {
		n += len(s.Records)
	}
	return n
}

func (c *collectingReceiver) waitCount(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d shipments arrived, want %d", c.count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// localRecs returns host-0 records with TOIds and LIds from..to.
func localRecs(from, to int) []*core.Record {
	var recs []*core.Record
	for i := from; i <= to; i++ {
		recs = append(recs, &core.Record{Host: 0, TOId: uint64(i), LId: uint64(i)})
	}
	return recs
}

// The sender's contract: it ships what the feed holds as soon as it is
// free, at most threshold records a shipment; it ships the table alone
// once per table-changed signal and otherwise stays silent; and the slow
// anti-entropy heartbeat is the only shipment nothing prompted.
func TestSenderShipsBatchesAndHeartbeats(t *testing.T) {
	state := newDCState(0, 2)
	state.feedEnabled = true
	s := NewSender("Sender", nil, state, 4)
	s.antiEntropy = time.Hour // out of reach: every shipment below is prompted
	rx := &collectingReceiver{}
	s.Connect(1, []ReceiverAPI{rx})

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.run(stop)
	}()

	// One token cycle of 10 records at threshold 4: shipments of 4, 4, 2.
	state.localFeed <- localRecs(1, 10)
	rx.waitCount(t, 3)
	// A table change with no records due ships the table alone, once.
	signal(state.tableChanged)
	rx.waitCount(t, 4)
	// A lone record does not wait for company.
	state.localFeed <- localRecs(11, 11)
	rx.waitCount(t, 5)
	close(stop)
	<-done

	if got := s.Shipped.Value(); got != 11 {
		t.Errorf("Shipped = %d, want 11", got)
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	want := []int{4, 4, 2, 0, 1}
	if len(rx.snaps) != len(want) {
		t.Fatalf("%d shipments, want %d: an idle sender must stay silent", len(rx.snaps), len(want))
	}
	next := uint64(1)
	for i, snap := range rx.snaps {
		if len(snap.Records) != want[i] {
			t.Errorf("shipment %d carries %d records, want %d", i, len(snap.Records), want[i])
		}
		for _, r := range snap.Records {
			if r.TOId != next {
				t.Fatalf("shipment %d carries TOId %d, want %d", i, r.TOId, next)
			}
			next++
		}
		// Every shipment carries the awareness table.
		if snap.ATable == nil {
			t.Fatalf("snapshot %d missing awareness table", i)
		}
		if snap.From != 0 {
			t.Fatalf("snapshot %d from %v", i, snap.From)
		}
	}
}

// With nothing to prompt it, a sender still ships the table at the
// anti-entropy period, so a lost table-only delivery is repaired.
func TestSenderAntiEntropyHeartbeat(t *testing.T) {
	state := newDCState(0, 2)
	s := NewSender("Sender", nil, state, 4)
	s.antiEntropy = time.Millisecond
	rx := &collectingReceiver{}
	s.Connect(1, []ReceiverAPI{rx})
	runStage(t, s.run)
	rx.waitCount(t, 3)
	if rx.records() != 0 {
		t.Error("a heartbeat carried records")
	}
}

func TestSenderShipsToAllConnectedDCs(t *testing.T) {
	state := newDCState(0, 3)
	state.feedEnabled = true
	s := NewSender("Sender", nil, state, 1)
	rx1, rx2 := &collectingReceiver{}, &collectingReceiver{}
	s.Connect(1, []ReceiverAPI{rx1})
	s.Connect(2, []ReceiverAPI{rx2})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); s.run(stop) }()
	state.localFeed <- localRecs(1, 1)
	deadline := time.Now().Add(5 * time.Second)
	for rx1.records() < 1 || rx2.records() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("fan-out incomplete: %d/%d", rx1.records(), rx2.records())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
}

func TestSenderShipsCopiesNotAliases(t *testing.T) {
	state := newDCState(0, 2)
	state.feedEnabled = true
	s := NewSender("Sender", nil, state, 1)
	rx := &collectingReceiver{}
	s.Connect(1, []ReceiverAPI{rx})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); s.run(stop) }()

	orig := &core.Record{Host: 0, TOId: 1, LId: 1, Body: []byte("original")}
	state.localFeed <- []*core.Record{orig}
	deadline := time.Now().Add(5 * time.Second)
	for rx.records() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("never shipped")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	rx.mu.Lock()
	snap := rx.snaps[0]
	rx.mu.Unlock()
	// An in-process sender ships a read-only borrow of the log's records:
	// the snapshot must not claim ownership, so receivers clone before
	// mutating.
	if snap.Owned {
		t.Fatal("sender marked a borrowed snapshot as Owned")
	}
	state2 := newDCState(1, 2)
	out := make(chan []*core.Record, 1)
	r := NewReceiver("Receiver", nil, state2, []chan<- []*core.Record{out})
	if err := r.Deliver(snap); err != nil {
		t.Fatal(err)
	}
	batch := <-out
	batch[0].Body[0] = 'X'
	if orig.Body[0] != 'o' {
		t.Error("received record aliases the local log's buffers")
	}
}

func TestReceiverClearsLIdsAndMergesTable(t *testing.T) {
	state := newDCState(1, 2)
	out := make(chan []*core.Record, 4)
	r := NewReceiver("Receiver", nil, state, []chan<- []*core.Record{out})

	remoteTable := vclock.NewATable(0, 2)
	remoteTable.Advance(0, 0, 7)
	err := r.Deliver(Snapshot{
		From:    0,
		Records: []*core.Record{{Host: 0, TOId: 1, LId: 42, Body: []byte("x")}},
		ATable:  remoteTable.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := <-out
	if len(batch) != 1 {
		t.Fatalf("forwarded %d records", len(batch))
	}
	if batch[0].LId != 0 {
		t.Errorf("LId not cleared: %d (LIds are per-datacenter)", batch[0].LId)
	}
	if got := state.atable.Get(0, 0); got != 7 {
		t.Errorf("table not merged: T[0][0] = %d, want 7", got)
	}
	if r.Processed.Value() != 1 {
		t.Errorf("Processed = %d", r.Processed.Value())
	}
}

func TestReceiverTableOnlySnapshot(t *testing.T) {
	state := newDCState(1, 2)
	out := make(chan []*core.Record, 1)
	r := NewReceiver("Receiver", nil, state, []chan<- []*core.Record{out})
	remote := vclock.NewATable(0, 2)
	remote.Advance(0, 1, 3)
	if err := r.Deliver(Snapshot{From: 0, ATable: remote.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	select {
	case batch := <-out:
		t.Fatalf("heartbeat produced a record batch: %v", batch)
	default:
	}
	if got := state.atable.Get(0, 1); got != 3 {
		t.Errorf("heartbeat table not merged: %d", got)
	}
}

func TestLatencyLinkOrderPreserved(t *testing.T) {
	rx := &collectingReceiver{}
	l := NewLatencyLink(rx, 5*time.Millisecond)
	defer l.Close()
	for i := 1; i <= 5; i++ {
		l.Deliver(Snapshot{From: 0, Records: []*core.Record{{Host: 0, TOId: uint64(i)}}})
	}
	deadline := time.Now().Add(5 * time.Second)
	for rx.count() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of 5", rx.count())
		}
		time.Sleep(time.Millisecond)
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	for i, snap := range rx.snaps {
		if snap.Records[0].TOId != uint64(i+1) {
			t.Fatalf("delivery %d has TOId %d (reordered)", i, snap.Records[0].TOId)
		}
	}
}

func TestLatencyLinkCloseDropsQueued(t *testing.T) {
	rx := &collectingReceiver{}
	l := NewLatencyLink(rx, time.Hour) // nothing will ever deliver
	l.Deliver(Snapshot{From: 0})
	l.Close()
	if rx.count() != 0 {
		t.Error("closed link delivered anyway")
	}
	// Deliver after close must not block or panic.
	if err := l.Deliver(Snapshot{From: 0}); err != nil {
		t.Errorf("Deliver after close: %v", err)
	}
}
