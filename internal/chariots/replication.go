package chariots

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
)

// ReceiverAPI is the ingress surface one datacenter exposes to the senders
// of other datacenters. It is implemented by *Receiver (in-process), by
// receiverClient (over RPC), and by LatencyLink (a WAN-delay-injecting
// wrapper used by the multi-datacenter simulation).
type ReceiverAPI interface {
	// Deliver hands over a propagation snapshot: new records of the
	// sending datacenter plus its Awareness Table.
	Deliver(snap Snapshot) error
}

// Receiver is one machine of the reception stage (§6.2): it accepts
// snapshots from remote senders, merges the shipped Awareness Table, and
// forwards the record copies (cloned, LIds cleared — LIds are per-
// datacenter) to the local batchers.
type Receiver struct {
	StageMachine
	state    *dcState
	batchers []chan<- []*core.Record
	mu       sync.Mutex
	rr       uint64
	// stopC aborts batcher pushes during shutdown.
	stopC <-chan struct{}
}

// NewReceiver builds a receiver machine feeding the given batcher inboxes.
func NewReceiver(name string, limiter *ratelimit.Limiter, state *dcState, batchers []chan<- []*core.Record) *Receiver {
	return &Receiver{StageMachine: StageMachine{Name: name, Limiter: limiter}, state: state, batchers: batchers}
}

// Deliver implements ReceiverAPI.
func (r *Receiver) Deliver(snap Snapshot) error {
	if len(snap.Records) > 0 {
		r.work(len(snap.Records))
		var out []*core.Record
		if snap.Owned {
			// The snapshot's records are ours to keep (RPC arena decode
			// or a resync's clones): adopt them, clearing LIds in place.
			out = snap.Records
			for _, rec := range out {
				rec.LId = 0 // LIds are per-datacenter; ours is assigned by a queue
			}
		} else {
			out = make([]*core.Record, 0, len(snap.Records))
			for _, rec := range snap.Records {
				c := rec.Clone()
				c.LId = 0
				out = append(out, c)
			}
		}
		// The receiving datacenter owns out (clones or adopted copies), so
		// its pipeline stages chain spans onto the originating trace.
		hopRecords(out, "pipe.recv")
		r.mu.Lock()
		dst := r.batchers[int(r.rr%uint64(len(r.batchers)))]
		r.rr++
		r.mu.Unlock()
		select {
		case dst <- out:
		case <-r.stopC: // nil, and never ready, for a receiver built outside a datacenter
		}
	}
	if snap.ATable != nil && r.state.atable.MergeSnapshot(snap.ATable) {
		// The merge raised our own row (a peer knew more about what we
		// hold than we did, e.g. after recovery), and only we announce
		// that row. What it taught us about other rows their owners ship
		// themselves, so ordinary merges prompt nothing and idle
		// datacenters fall silent.
		signal(r.state.tableChanged)
	}
	return nil
}

// tableAntiEntropy is how often an otherwise idle sender ships the
// Awareness Table unprompted. Table-only shipments are change-driven
// (dcState.tableChanged); this slow tick only repairs a table-only delivery
// the link lost, after which nothing would change again to prompt another.
const tableAntiEntropy = time.Second

// Sender is one machine of the propagation stage (§6.2): it consumes the
// shared feed of applied local records and ships them — with an Awareness
// Table snapshot — to every remote datacenter. Hand-off is work-paced: the
// sender ships whatever the feed holds (at most threshold records) the
// moment it is free, and since Deliver is synchronous the next shipment
// accumulates while the last is on the wire. Each sender is bounded by its
// own capacity limiter, so higher replication throughput is reached by
// adding senders.
type Sender struct {
	StageMachine
	state       *dcState
	threshold   int
	antiEntropy time.Duration // tableAntiEntropy, except in tests

	mu    sync.Mutex
	dests map[core.DCID][]ReceiverAPI
	rr    map[core.DCID]uint64

	// Shipped counts records propagated (once per remote datacenter).
	Shipped metrics.Counter
	// Errors counts failed deliveries (the records are NOT lost: the
	// awareness table never advanced, so Resync re-ships them).
	Errors metrics.Counter
}

// NewSender builds a sender machine; threshold is the most records one
// shipment carries.
func NewSender(name string, limiter *ratelimit.Limiter, state *dcState, threshold int) *Sender {
	if threshold < 1 {
		threshold = 1
	}
	return &Sender{
		StageMachine: StageMachine{Name: name, Limiter: limiter},
		state:        state,
		threshold:    threshold,
		antiEntropy:  tableAntiEntropy,
		dests:        make(map[core.DCID][]ReceiverAPI),
		rr:           make(map[core.DCID]uint64),
	}
}

// Connect registers the receivers of a remote datacenter. Shipments to
// that datacenter round-robin across its receivers.
func (s *Sender) Connect(dc core.DCID, receivers []ReceiverAPI) {
	s.mu.Lock()
	s.dests[dc] = append([]ReceiverAPI(nil), receivers...)
	s.mu.Unlock()
}

func (s *Sender) run(stop <-chan struct{}) {
	ticker := time.NewTicker(s.antiEntropy)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case pending := <-s.state.localFeed:
			for len(pending) > 0 {
				pending = s.gather(pending)
				n := min(len(pending), s.threshold)
				// The shipped prefix is lent to the snapshot (a LatencyLink
				// may hold it after ship returns) and capped, so topping up
				// the remainder never writes into it.
				s.ship(pending[:n:n])
				pending = pending[n:]
			}
		case <-s.state.tableChanged:
			s.ship(nil)
		case <-ticker.C:
			s.ship(nil)
		}
	}
}

// gather tops pending up with what the feed already holds, without
// blocking, until it is a full shipment or the feed is empty.
func (s *Sender) gather(pending []*core.Record) []*core.Record {
	for len(pending) < s.threshold {
		select {
		case recs := <-s.state.localFeed:
			pending = append(pending, recs...)
		default:
			return pending
		}
	}
	return pending
}

// ship sends one snapshot (no records for a table-only shipment) to every
// connected datacenter. It takes ownership of recs: applied records are
// immutable, so the snapshot borrows them read-only instead of cloning —
// an RPC receiver encodes them onto the wire, and an in-process receiver
// clones before mutating (Owned is false).
func (s *Sender) ship(recs []*core.Record) {
	if len(recs) > 0 {
		s.work(len(recs))
		// Applied records are immutable here, so the span is recorded off
		// a context copy without advancing the records' chains.
		spanRecords(recs, "pipe.send")
		if ring := s.state.applyTimes.Load(); s.handoffWait != nil && ring != nil {
			if ns := ring.at(recs[0].TOId); ns != 0 {
				s.handoffWait.Observe(time.Since(time.Unix(0, ns)).Seconds())
			}
		}
	}
	s.mu.Lock()
	var targets []ReceiverAPI
	for dc, rxs := range s.dests {
		if len(rxs) == 0 {
			continue
		}
		targets = append(targets, rxs[s.rr[dc]%uint64(len(rxs))])
		s.rr[dc]++
	}
	s.mu.Unlock()

	snap := Snapshot{From: s.state.self, Records: recs, ATable: s.state.atable.Snapshot()}
	for _, rx := range targets {
		if err := rx.Deliver(snap); err != nil {
			s.Errors.Inc()
			continue
		}
		s.Shipped.Add(uint64(len(recs)))
	}
}

// LatencyLink wraps a ReceiverAPI with a one-way propagation delay,
// standing in for the WAN between datacenters. Delivery order is
// preserved (FIFO), matching a TCP connection between sites.
type LatencyLink struct {
	delay time.Duration
	dst   ReceiverAPI
	ch    chan Snapshot
	once  sync.Once
	stop  chan struct{}
	done  chan struct{}
}

// NewLatencyLink returns a link that delays every Deliver by delay.
func NewLatencyLink(dst ReceiverAPI, delay time.Duration) *LatencyLink {
	l := &LatencyLink{
		delay: delay,
		dst:   dst,
		ch:    make(chan Snapshot, 1<<12),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go l.pump()
	return l
}

type timedSnap struct {
	at   time.Time
	snap Snapshot
}

func (l *LatencyLink) pump() {
	defer close(l.done)
	var queue []timedSnap
	for {
		var timerC <-chan time.Time
		var timer *time.Timer
		if len(queue) > 0 {
			wait := time.Until(queue[0].at)
			timer = time.NewTimer(wait)
			timerC = timer.C
		}
		select {
		case <-l.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case snap := <-l.ch:
			queue = append(queue, timedSnap{at: time.Now().Add(l.delay), snap: snap})
			if timer != nil {
				timer.Stop()
			}
		case <-timerC:
			l.dst.Deliver(queue[0].snap)
			queue = queue[1:]
		}
	}
}

// Deliver implements ReceiverAPI: enqueue for delayed delivery.
func (l *LatencyLink) Deliver(snap Snapshot) error {
	select {
	case l.ch <- snap:
		return nil
	case <-l.stop:
		return nil
	}
}

// Close stops the link, dropping undelivered snapshots (a partition).
func (l *LatencyLink) Close() {
	l.once.Do(func() { close(l.stop) })
	<-l.done
}
