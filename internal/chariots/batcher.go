package chariots

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ratelimit"
)

// Batcher is one machine of the batching stage (§6.2): it buffers records
// received from application clients and receivers, one buffer per filter
// (records are mapped to filters by the shared FilterRouting) and hands the
// buffers downstream as soon as its inbox runs dry or one of them reaches
// the flush threshold. Hand-off is work-paced: a lone record is forwarded
// at once, and under backlog the inbox never runs dry, so batches fill to
// the threshold and the blocking downstream send is the pacing. Batchers
// are completely independent of each other — adding one requires no
// coordination.
type Batcher struct {
	StageMachine
	in      chan []*core.Record
	routing *FilterRouting
	thresh  int // ceiling on how long a buffer grows before it is handed on

	// filters and the per-filter buffers may grow while the batcher
	// runs (AddFilter); guarded by filterMu.
	filterMu sync.Mutex
	filters  []chan<- []*core.Record
	bufs     [][]*core.Record
	// nics, when non-nil, are the destination filters' shared NIC
	// limiters (index-aligned with filters): transmitting a batch to a
	// filter charges that filter's ingress.
	nics []*ratelimit.Limiter

	// since is when the round's first record was absorbed (kept only when
	// handoffWait is set); the wait observed runs to the end of the send.
	since time.Time
}

// NewBatcher builds a batcher machine. in is its ingress; filters are the
// downstream filter inboxes, index-aligned with the routing.
func NewBatcher(name string, limiter *ratelimit.Limiter, in chan []*core.Record, routing *FilterRouting, filters []chan<- []*core.Record, threshold int) *Batcher {
	if threshold < 1 {
		threshold = 1
	}
	return &Batcher{
		StageMachine: StageMachine{Name: name, Limiter: limiter},
		in:           in,
		routing:      routing,
		filters:      filters,
		thresh:       threshold,
		bufs:         make([][]*core.Record, len(filters)),
	}
}

// In returns the batcher's ingress channel.
func (b *Batcher) In() chan []*core.Record { return b.in }

// run consumes the ingress until stop closes; what is still buffered then
// is dropped with the rest of the pipeline's in-flight records.
func (b *Batcher) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case recs := <-b.in:
			b.fill(recs)
			b.flushAll(stop)
		}
	}
}

// fill absorbs recs and then whatever else the inbox already holds, until
// the inbox is empty or a buffer has reached the threshold.
func (b *Batcher) fill(recs []*core.Record) {
	if b.handoffWait != nil {
		b.since = time.Now()
	}
	for full := b.absorb(recs); !full; {
		select {
		case recs = <-b.in:
			full = b.absorb(recs)
		default:
			return
		}
	}
}

// absorb charges the batch against the machine's capacity and distributes
// the records to per-filter buffers; it reports whether a buffer has
// reached the threshold.
func (b *Batcher) absorb(recs []*core.Record) (full bool) {
	if len(recs) == 0 {
		return false
	}
	b.work(len(recs))
	b.filterMu.Lock()
	for _, r := range recs {
		f := b.routing.Route(r.Host, r.TOId)
		if f >= len(b.bufs) {
			// Routing grew before this batcher learned of the new
			// filter; park on the last known one (the reassignment
			// mark is chosen far enough ahead that this is only a
			// transient during hand-over).
			f = len(b.bufs) - 1
		}
		if b.bufs[f] == nil {
			// Flushing hands the buffer downstream, so each round
			// starts fresh, sized for the batch that opens it: a
			// lone record must not pay for a full threshold.
			b.bufs[f] = make([]*core.Record, 0, len(recs))
		}
		b.bufs[f] = append(b.bufs[f], r)
	}
	for f := range b.bufs {
		full = full || len(b.bufs[f]) >= b.thresh
	}
	b.filterMu.Unlock()
	return full
}

// addFilter publishes a new filter inbox to a (possibly running) batcher.
func (b *Batcher) addFilter(in chan<- []*core.Record) {
	b.filterMu.Lock()
	b.filters = append(b.filters, in)
	b.bufs = append(b.bufs, nil)
	b.filterMu.Unlock()
}

// flushAll hands every non-empty buffer to its filter; stop aborts a send
// so a full filter inbox cannot wedge the batcher through shutdown.
func (b *Batcher) flushAll(stop <-chan struct{}) {
	for f := 0; ; f++ {
		b.filterMu.Lock()
		if f == len(b.bufs) {
			b.filterMu.Unlock()
			return
		}
		batch, dst := b.bufs[f], b.filters[f]
		b.bufs[f] = nil
		b.filterMu.Unlock()
		if len(batch) == 0 {
			continue
		}
		// Buffer wait plus batching shows up as the pipe.batch span: the
		// hop covers ingress → flush for each sampled record.
		hopRecords(batch, "pipe.batch")
		// Transmit, then charge the destination filter's NIC: a transfer
		// that blocks on a full inbox must not consume NIC tokens, or the
		// filter's egress share starves while records sit undelivered.
		select {
		case dst <- batch:
		case <-stop:
			return
		}
		if f < len(b.nics) {
			b.nics[f].WaitN(len(batch))
		}
		if h := b.handoffWait; h != nil {
			h.Observe(time.Since(b.since).Seconds())
		}
	}
}
