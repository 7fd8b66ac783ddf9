package chariots

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/vclock"
)

// AppendAck reports the ids a locally appended record received once the
// pipeline applied it to the shared log (§3: "The assigned TOId and LId
// will be sent back to the Application client").
type AppendAck struct {
	TOId uint64
	LId  uint64
}

// dcState is the per-datacenter shared state the pipeline stages
// coordinate through: the Awareness Table, the feed of freshly applied
// local records consumed by senders, and the pending append
// acknowledgements owed to application clients.
type dcState struct {
	self   core.DCID
	n      int
	atable *vclock.ATable

	// localFeed carries applied local records (LIds assigned) from the
	// queues to the senders, one slice per token cycle; the slice belongs
	// to the sender that receives it. feedEnabled is false in
	// single-datacenter deployments (no senders), where pushing to the
	// feed would fill it and stall the queues.
	localFeed   chan []*core.Record
	feedEnabled bool

	// tableChanged tells the senders the Awareness Table learned
	// something no record shipment will carry: remote records moved the
	// self row (queue.persist), or a merged snapshot raised an entry
	// (Receiver.Deliver). One pending signal is enough — the shipment it
	// triggers snapshots the table afresh — so raising it never blocks.
	tableChanged chan struct{}

	// pendingInput counts the batches the datacenter's queue pumps have
	// taken in and no token holder has drained yet; inputWake is the
	// coalescing signal raised beside it. Together they let an idle token
	// holder wait for work — anywhere on the ring — instead of polling.
	pendingInput atomic.Int64
	inputWake    chan struct{}

	// acks maps a locally submitted *core.Record to the channel waiting
	// for its AppendAck. Pointer identity is stable because intra-DC
	// stages pass records in process; external copies are cloned at the
	// receiver and never have acks.
	acks sync.Map

	// applyTimes, when set (EnableMetrics), records when each local TOId
	// was applied, backing the wall-time replication-lag gauge.
	applyTimes atomic.Pointer[applyTimeRing]

	// credits bounds records between local ingress and apply (credit.go).
	// Queues reach it through their state pointer to return credits at
	// persist time.
	credits *creditGate
}

// newDCState builds the shared state; feedDepth is the feed's depth in
// token cycles (default 4096: deep enough that a sender stalled on one WAN
// round trip does not stall the token, and credits bound what a cycle holds).
func newDCState(self core.DCID, n int, feedDepth int) *dcState {
	if feedDepth < 1 {
		feedDepth = 1 << 12
	}
	return &dcState{
		self:         self,
		n:            n,
		atable:       vclock.NewATable(self, n),
		localFeed:    make(chan []*core.Record, feedDepth),
		tableChanged: make(chan struct{}, 1),
		inputWake:    make(chan struct{}, 1),
	}
}

// wakeHolder wakes the token holder if it is waiting for input.
func (s *dcState) wakeHolder() {
	select {
	case s.inputWake <- struct{}{}:
	default:
	}
}

// signalTableChanged raises the coalescing table-changed signal.
func (s *dcState) signalTableChanged() {
	select {
	case s.tableChanged <- struct{}{}:
	default:
	}
}

// registerAck arranges for ch to receive the record's ids once applied.
func (s *dcState) registerAck(rec *core.Record, ch chan<- AppendAck) {
	s.acks.Store(rec, ch)
}

// unregisterAck abandons a registration whose record was never admitted
// (ingress shed), so the acks map does not accumulate dead entries.
func (s *dcState) unregisterAck(rec *core.Record) {
	s.acks.Delete(rec)
}

// fireAck delivers the ack for rec, if one is registered.
func (s *dcState) fireAck(rec *core.Record) {
	v, ok := s.acks.LoadAndDelete(rec)
	if !ok {
		return
	}
	ch := v.(chan<- AppendAck)
	ch <- AppendAck{TOId: rec.TOId, LId: rec.LId}
}
