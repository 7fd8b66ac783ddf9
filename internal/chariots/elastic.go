package chariots

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/ratelimit"
)

// Live elasticity (§6.3). Completely independent stages (receivers,
// batchers, senders) are grown by constructing another machine and
// advertising it to the stage above; filters and maintainers champion
// record subsets and therefore use *future reassignment* (FilterRouting.
// Reassign, flstore's epoch journal); queues join the token ring.

// AddBatcher grows the batching stage by one machine while the pipeline
// runs. Receivers and future Inject calls start using it immediately.
func (dc *Datacenter) AddBatcher(rate float64) *Batcher {
	in := make(chan []*core.Record, depthFor(dc.cfg.ChannelDepth, dc.cfg.FlushThreshold))
	var filterIns []chan<- []*core.Record
	for _, f := range dc.filters {
		filterIns = append(filterIns, f.In())
	}
	dc.startMu.Lock()
	name := machineName("Batcher", len(dc.batchers), len(dc.batchers)+2)
	b := NewBatcher(name, ratelimit.New(rate, 64), in, dc.routing, filterIns,
		dc.cfg.FlushThreshold)
	dc.batchers = append(dc.batchers, b)
	started := dc.started && !dc.stopped
	dc.startMu.Unlock()
	if started {
		dc.launch(b.run)
	}
	// Receivers learn the new batcher.
	for _, r := range dc.receivers {
		r.addBatcher(in)
	}
	return b
}

// AddSender grows the propagation stage by one machine. The caller then
// Connects it to remote receivers; nothing else needs to be told (§6.3: a
// new sender is the one doing the reading).
func (dc *Datacenter) AddSender(rate float64) *Sender {
	dc.startMu.Lock()
	name := machineName("Sender", len(dc.senders), len(dc.senders)+2)
	s := NewSender(name, ratelimit.New(rate, 64), dc.state, dc.cfg.SendThreshold)
	dc.senders = append(dc.senders, s)
	started := dc.started && !dc.stopped
	dc.startMu.Unlock()
	if started {
		dc.launch(s.run)
	}
	return s
}

// AddQueue inserts a new queue machine into the token ring after the queue
// at position after (§6.3: "informing one of the queues that it should
// forward the token to the new queue rather than the original neighbor"),
// and advertises its inbox to all filters — the latter "can be performed
// without coordination because a queue can receive any record".
func (dc *Datacenter) AddQueue(after int, rate float64) (*Queue, error) {
	if after < 0 || after >= len(dc.queues) {
		return nil, errors.New("chariots: AddQueue position out of range")
	}
	in := make(chan []*core.Record, depthFor(dc.cfg.ChannelDepth, dc.cfg.FlushThreshold))
	anchor := dc.queues[after]

	dc.startMu.Lock()
	name := machineName("Queue", len(dc.queues), len(dc.queues)+2)
	q := NewQueue(name, ratelimit.New(rate, 64), len(dc.queues), dc.state, in,
		anchor.placement, anchor.maintainers, dc.cfg.CarryDeferred)
	dc.queues = append(dc.queues, q)
	started := dc.started && !dc.stopped
	dc.startMu.Unlock()

	// Splice into the ring: the new queue forwards to the anchor's old
	// neighbor; the anchor forwards to the new queue.
	q.SetNext(anchor.nextChan())
	anchor.SetNext(q.TokenIn())

	if started {
		dc.launch(q.run)
	}
	for _, f := range dc.filters {
		f.addQueue(in)
	}
	return q, nil
}

// AddFilter grows the uniqueness stage by one machine. The new filter
// takes no traffic until ReassignFilter names it in a future mark.
func (dc *Datacenter) AddFilter(rate float64) (*Filter, error) {
	in := make(chan []*core.Record, depthFor(dc.cfg.ChannelDepth, dc.cfg.FlushThreshold))
	var queueIns []chan<- []*core.Record
	for _, q := range dc.queues {
		queueIns = append(queueIns, q.In())
	}
	if err := dc.routing.GrowFilters(len(dc.filters) + 1); err != nil {
		return nil, err
	}
	dc.startMu.Lock()
	name := machineName("Filter", len(dc.filters), len(dc.filters)+2)
	f := NewFilter(name, ratelimit.New(rate, 64), len(dc.filters), dc.cfg.Self, in,
		dc.routing, queueIns, 0)
	f.stopC = dc.group.stop
	dc.filters = append(dc.filters, f)
	started := dc.started && !dc.stopped
	dc.startMu.Unlock()
	if started {
		dc.launch(f.run)
	}
	// Batchers learn the new filter's inbox (routing indexes into it).
	for _, b := range dc.batchers {
		b.addFilter(in)
	}
	return f, nil
}

// StageCounts is a datacenter's per-stage machine census.
type StageCounts struct {
	Receivers int `json:"receivers"`
	Batchers  int `json:"batchers"`
	Filters   int `json:"filters"`
	Queues    int `json:"queues"`
	Senders   int `json:"senders"`
}

// Stages reports how many machines each pipeline stage currently runs —
// the autoscaler (and operators) read it to confirm grow operations took
// effect.
func (dc *Datacenter) Stages() StageCounts {
	dc.startMu.Lock()
	defer dc.startMu.Unlock()
	return StageCounts{
		Receivers: len(dc.receivers),
		Batchers:  len(dc.batchers),
		Filters:   len(dc.filters),
		Queues:    len(dc.queues),
		Senders:   len(dc.senders),
	}
}

// ReassignFilter announces a future championship reassignment: from
// fromTOId onward, host's records are split across the named filters by
// TOId residue (§6.3's "future TOId mark"). The mark must be far enough
// ahead that in-flight records below it still route to the old champion —
// the caller picks it, typically current-max-TOId plus a margin.
func (dc *Datacenter) ReassignFilter(host core.DCID, fromTOId uint64, filters []int) error {
	return dc.routing.Reassign(host, fromTOId, filters)
}

// WaitForTOId blocks until the datacenter has applied host's records up to
// toid, or the timeout expires (used to confirm hand-overs took effect).
func (dc *Datacenter) WaitForTOId(host core.DCID, toid uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if dc.state.atable.SelfVector().Get(host) >= toid {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// addBatcher publishes a new batcher inbox to a (possibly running)
// receiver.
func (r *Receiver) addBatcher(in chan<- []*core.Record) {
	r.mu.Lock()
	r.batchers = append(r.batchers, in)
	r.mu.Unlock()
}
