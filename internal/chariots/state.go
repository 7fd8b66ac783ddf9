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
	atable *vclock.ATable

	// localFeed carries applied local records (LIds assigned) from the
	// queues to the senders, one slice per token cycle; the slice belongs
	// to the sender that receives it. feedEnabled is false in
	// single-datacenter deployments (no senders), where pushing to the
	// feed would fill it and stall the queues.
	localFeed   chan []*core.Record
	feedEnabled bool

	// tableChanged tells the senders the self row moved with no record
	// shipment to carry it: remote records were applied (queue.persist) or
	// a merged snapshot raised it (Receiver.Deliver). One pending signal is
	// enough — the shipment it prompts snapshots the table afresh.
	tableChanged chan struct{}

	// pendingInput counts the batches the queues' pumps have taken in and
	// no token holder has drained yet; inputWake is raised beside it. They
	// let an idle token holder wait for work anywhere on the ring.
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

// feedDepth is the feed's depth in token cycles: deep enough that a sender
// held up for a WAN round trip does not stall the token.
const feedDepth = 1 << 12

func newDCState(self core.DCID, n int) *dcState {
	return &dcState{
		self:         self,
		atable:       vclock.NewATable(self, n),
		localFeed:    make(chan []*core.Record, feedDepth),
		tableChanged: make(chan struct{}, 1),
		inputWake:    make(chan struct{}, 1),
	}
}

// signal raises one of the state's coalescing capacity-1 signals: a
// receiver that has not yet consumed the last one needs no second.
func signal(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
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
