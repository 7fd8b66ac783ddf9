package chariots

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/ratelimit"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// StageRates are the per-machine capacity limits (records/second) of each
// pipeline stage; 0 means unlimited. These model the NIC/CPU bounds of the
// paper's cluster machines (DESIGN.md §3.6); the private-cloud profile in
// the evaluation sets them to the paper's measured per-machine numbers.
type StageRates struct {
	Batcher    float64
	Filter     float64
	Queue      float64
	Maintainer float64
	Store      float64
	Sender     float64
	Receiver   float64
}

// Config assembles one Chariots datacenter (§6.2).
type Config struct {
	Self   core.DCID
	NumDCs int

	Batchers    int
	Filters     int
	Queues      int
	Maintainers int
	Senders     int
	Receivers   int
	Indexers    int

	// PlacementBatch is the FLStore round size (LIds per maintainer per
	// round); defaults to 1000, the paper's Figure 4 example.
	PlacementBatch uint64

	// FlushThreshold is the most records a batcher lets a per-filter
	// buffer grow to before handing it downstream. It is a ceiling, not a
	// target: buffers are also handed on whenever the batcher's inbox
	// runs dry, so it only shapes batches under backlog.
	FlushThreshold int

	// SendThreshold is the most records a sender puts in one shipment. A
	// ceiling, like FlushThreshold: a sender ships what the feed holds the
	// moment it is free, and the Awareness Table travels with every
	// shipment or, when it changed and no records are due, on its own.
	SendThreshold int

	// CarryDeferred ships dependency-blocked records with the token
	// instead of parking them at the queue that saw them (§6.2).
	CarryDeferred bool

	// Rates are the per-machine capacity limits; Burst the token-bucket
	// burst (defaults to rate/100).
	Rates StageRates
	Burst int

	// FilterNICRate, when > 0, replaces Rates.Filter with a shared-NIC
	// model: each filter machine owns one limiter of this rate charged
	// once on ingress (by the transmitting batcher) and once on egress
	// (forwarding to a queue), so steady-state filter throughput is
	// FilterNICRate/2 — the behaviour behind the paper's Figure 9.
	FilterNICRate float64

	// ChannelDepth is the inter-stage buffer depth in records (approx);
	// defaults to 8192.
	ChannelDepth int

	// PipelineCredits bounds the local records admitted at ingress but not
	// yet applied to the log (credit-based flow control, DESIGN.md §8):
	// when the pipeline holds this many in-flight records, Inject blocks —
	// or sheds, per ShedOnSaturation — until the queues drain. Defaults to
	// 32768; negative disables the bound (the gate still counts in-flight
	// records for observability).
	PipelineCredits int

	// ShedOnSaturation selects the ingress policy at the credit bound:
	// false (default) blocks the caller until credits free up
	// (backpressure); true rejects immediately with a retryable
	// SaturationError carrying a retry hint (admission control).
	ShedOnSaturation bool

	// Stores, when non-nil, supplies the maintainer backing stores
	// (index-aligned); MemStores are used otherwise. Disk-backed
	// deployments pass storage.OpenSegmentStore handles.
	Stores []storage.Store
}

func (c *Config) setDefaults() error {
	if c.NumDCs < 1 {
		return errors.New("chariots: NumDCs must be >= 1")
	}
	if int(c.Self) >= c.NumDCs {
		return fmt.Errorf("chariots: Self %d out of range for %d DCs", c.Self, c.NumDCs)
	}
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.Batchers, 1)
	def(&c.Filters, 1)
	def(&c.Queues, 1)
	def(&c.Maintainers, 1)
	if c.NumDCs > 1 {
		def(&c.Senders, 1)
		def(&c.Receivers, 1)
	}
	if c.PlacementBatch == 0 {
		c.PlacementBatch = 1000
	}
	def(&c.FlushThreshold, 256)
	def(&c.SendThreshold, 256)
	def(&c.ChannelDepth, 8192)
	if c.PipelineCredits == 0 { // negative = explicitly unbounded
		c.PipelineCredits = 32768
	}
	if c.Stores != nil && len(c.Stores) != c.Maintainers {
		return fmt.Errorf("chariots: %d stores for %d maintainers", len(c.Stores), c.Maintainers)
	}
	return nil
}

// Datacenter is one running Chariots instance: the full §6.2 pipeline plus
// the FLStore it persists into. Create with New, wire to peers with
// ConnectTo, then Start.
type Datacenter struct {
	cfg     Config
	state   *dcState
	group   *stageGroup
	routing *FilterRouting

	batchers    []*Batcher
	filters     []*Filter
	queues      []*Queue
	maintainers []*flstore.Maintainer
	stores      []*countingStore
	indexers    []*flstore.Indexer
	senders     []*Sender
	receivers   []*Receiver
	gossipers   []*flstore.Gossiper

	maintainerMachines []*StageMachine
	reader             *flstore.Client

	// gc is the collected bound the stores keep: the highest LId whose
	// prefix CollectGarbage released, and per host the highest TOId at or
	// below it. Every read of the log starts above it, and a reader holds
	// mu so that no collection trims the window under it.
	gc struct {
		mu      sync.Mutex
		bound   uint64
		covered vclock.Vector
	}

	initialToken *Token

	rrBatcher atomic.Uint64
	startMu   sync.Mutex
	started   bool
	stopped   bool
}

// New builds (but does not start) a datacenter.
func New(cfg Config) (*Datacenter, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	dc := &Datacenter{cfg: cfg, group: newStageGroup()}
	dc.state = newDCState(cfg.Self, cfg.NumDCs)
	dc.state.feedEnabled = cfg.Senders > 0 && cfg.NumDCs > 1
	creditCap := cfg.PipelineCredits
	if creditCap < 0 {
		creditCap = 0 // counting-only gate
	}
	dc.state.credits = newCreditGate(creditCap)

	// The collected bound is the highest the stores keep. A crash between
	// two stores' collections leaves one behind: it is brought up to the
	// bound, so that every read path agrees on what is collected.
	dc.gc.covered = vclock.NewVector(cfg.NumDCs)
	for _, st := range cfg.Stores {
		bound, covered := st.Collected()
		dc.gc.bound = max(dc.gc.bound, bound)
		for _, d := range covered {
			dc.gc.covered.Advance(d.DC, d.TOId)
		}
	}
	for _, st := range cfg.Stores {
		if _, err := st.GC(dc.gc.bound, dc.gc.covered.Deps()); err != nil {
			return nil, fmt.Errorf("chariots: collecting the stores up to the bound: %w", err)
		}
	}

	var err error
	dc.routing, err = NewFilterRouting(cfg.NumDCs, cfg.Filters)
	if err != nil {
		return nil, err
	}

	burst := func(rate float64) int {
		if cfg.Burst > 0 {
			return cfg.Burst
		}
		// The burst must comfortably exceed one pipeline batch (flush
		// threshold, queue drain cycle) so that consecutive stages'
		// token-bucket charges overlap in time the way independent
		// machines do rather than serializing within one goroutine.
		return max(int(rate/40), 64)
	}
	newLim := func(rate float64) *ratelimit.Limiter {
		return ratelimit.New(rate, burst(rate))
	}

	// Indexers.
	var indexerAPIs []flstore.IndexerAPI
	for i := 0; i < cfg.Indexers; i++ {
		ix := flstore.NewIndexer(nil)
		dc.indexers = append(dc.indexers, ix)
		indexerAPIs = append(indexerAPIs, ix)
	}

	// FLStore maintainers (capacity modelled by a wrapping machine so
	// the pipeline gets blocking backpressure rather than rejections).
	placement := flstore.Placement{NumMaintainers: cfg.Maintainers, BatchSize: cfg.PlacementBatch}
	var appendAPIs []flstore.MaintainerAPI // rate-limited, used by queues
	var readAPIs []flstore.MaintainerAPI   // direct, used by readers
	for i := 0; i < cfg.Maintainers; i++ {
		var backing storage.Store
		if cfg.Stores != nil {
			backing = cfg.Stores[i]
		} else {
			backing = storage.NewMemStore()
		}
		cs := &countingStore{Store: backing}
		cs.sm.Limiter = newLim(cfg.Rates.Store)
		cs.sm.Name = machineName("Store", i, cfg.Maintainers)
		dc.stores = append(dc.stores, cs)

		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
			Index:     i,
			Placement: placement,
			Store:     cs,
			Indexers:  indexerAPIs,
		})
		if err != nil {
			return nil, err
		}
		dc.maintainers = append(dc.maintainers, m)
		readAPIs = append(readAPIs, m)

		lm := &limitedMaintainer{MaintainerAPI: m}
		lm.sm.Limiter = newLim(cfg.Rates.Maintainer)
		lm.sm.Name = machineName("Maintainer", i, cfg.Maintainers)
		dc.maintainerMachines = append(dc.maintainerMachines, &lm.sm)
		appendAPIs = append(appendAPIs, lm)
	}
	dc.reader, err = flstore.NewDirectClient(placement, readAPIs, indexerAPIs)
	if err != nil {
		return nil, err
	}

	// Restart path: when the backing stores already hold records (a
	// datacenter recovering with its persistent log), rebuild the
	// ordering state — the token's applied vector and next LId, and the
	// awareness table's self row — from the stores. (Each maintainer
	// already re-posted its recovered records' tags to the indexers when
	// it was built, so tag reads cover the log from before the restart.)
	// This is the one walk of whole stores in the package, and it cannot
	// be a read by position: after a crash, records past a hole exist only
	// in the stores, and the token would hand their LIds out again. It
	// starts above the collected bound, the token's first LId, from the
	// TOIds the collected prefix covered.
	dc.initialToken = NewToken(cfg.NumDCs)
	dc.initialToken.NextLId = dc.gc.bound + 1
	dc.initialToken.Applied = dc.gc.covered.Clone()
	for _, st := range dc.stores {
		if err := st.Scan(dc.gc.bound+1, 0, func(rec *core.Record) bool {
			dc.initialToken.Applied.Advance(rec.Host, rec.TOId)
			dc.initialToken.NextLId = max(dc.initialToken.NextLId, rec.LId+1)
			return true
		}); err != nil {
			return nil, fmt.Errorf("chariots: recovering from the stores: %w", err)
		}
	}
	for host, toid := range dc.initialToken.Applied {
		dc.state.atable.RecordApplied(core.DCID(host), toid)
	}

	// HL gossip among maintainers.
	for i, m := range dc.maintainers {
		peers := make([]flstore.MaintainerAPI, cfg.Maintainers)
		for j := range peers {
			if j != i {
				peers[j] = dc.maintainers[j]
			}
		}
		dc.gossipers = append(dc.gossipers, flstore.NewGossiper(m, peers, time.Millisecond))
	}

	// Queues.
	var queueIns []chan<- []*core.Record
	for i := 0; i < cfg.Queues; i++ {
		in := make(chan []*core.Record, depthFor(cfg.ChannelDepth, cfg.FlushThreshold))
		q := NewQueue(machineName("Queue", i, cfg.Queues), newLim(cfg.Rates.Queue), i,
			dc.state, in, placement, appendAPIs, cfg.CarryDeferred)
		dc.queues = append(dc.queues, q)
		queueIns = append(queueIns, in)
	}
	for i, q := range dc.queues {
		q.SetNext(dc.queues[(i+1)%len(dc.queues)].TokenIn())
	}

	// Filters.
	var filterIns []chan<- []*core.Record
	var filterNICs []*ratelimit.Limiter
	for i := 0; i < cfg.Filters; i++ {
		in := make(chan []*core.Record, depthFor(cfg.ChannelDepth, cfg.FlushThreshold))
		filterRate := cfg.Rates.Filter
		if cfg.FilterNICRate > 0 {
			filterRate = 0 // NIC model replaces the per-record limiter
		}
		f := NewFilter(machineName("Filter", i, cfg.Filters), newLim(filterRate), i,
			cfg.Self, in, dc.routing, queueIns, 0)
		f.stopC = dc.group.stop
		if cfg.FilterNICRate > 0 {
			f.nic = newLim(cfg.FilterNICRate)
		}
		filterNICs = append(filterNICs, f.nic)
		dc.filters = append(dc.filters, f)
		filterIns = append(filterIns, in)
	}

	// Batchers.
	var batcherIns []chan<- []*core.Record
	for i := 0; i < cfg.Batchers; i++ {
		in := make(chan []*core.Record, depthFor(cfg.ChannelDepth, cfg.FlushThreshold))
		b := NewBatcher(machineName("Batcher", i, cfg.Batchers), newLim(cfg.Rates.Batcher), in,
			dc.routing, filterIns, cfg.FlushThreshold)
		if cfg.FilterNICRate > 0 {
			b.nics = filterNICs
		}
		dc.batchers = append(dc.batchers, b)
		batcherIns = append(batcherIns, in)
	}

	// A restarting datacenter's filters must treat the recovered prefix
	// as already delivered, or resynced records (which start after it)
	// would wait forever for TOIds the log already holds.
	for _, f := range dc.filters {
		for host := 0; host < cfg.NumDCs; host++ {
			if toid := dc.initialToken.Applied.Get(core.DCID(host)); toid > 0 {
				f.seedLast(core.DCID(host), toid)
			}
		}
	}

	// Receivers and senders (multi-DC only).
	for i := 0; i < cfg.Receivers; i++ {
		r := NewReceiver(machineName("Receiver", i, cfg.Receivers), newLim(cfg.Rates.Receiver),
			dc.state, batcherIns)
		r.stopC = dc.group.stop
		dc.receivers = append(dc.receivers, r)
	}
	for i := 0; i < cfg.Senders; i++ {
		s := NewSender(machineName("Sender", i, cfg.Senders), newLim(cfg.Rates.Sender),
			dc.state, cfg.SendThreshold)
		dc.senders = append(dc.senders, s)
	}
	return dc, nil
}

func depthFor(depth, flush int) int {
	return max(depth/max(flush, 1), 4)
}

// Self returns this datacenter's id.
func (dc *Datacenter) Self() core.DCID { return dc.cfg.Self }

// ConnectTo registers the receivers of a remote datacenter with every
// sender. Call before Start (or during operation to add a datacenter).
func (dc *Datacenter) ConnectTo(remote core.DCID, receivers []ReceiverAPI) {
	for _, s := range dc.senders {
		s.Connect(remote, receivers)
	}
}

// Receivers returns this datacenter's reception endpoints for peers to
// connect to (wrap in LatencyLink to model the WAN).
func (dc *Datacenter) Receivers() []ReceiverAPI {
	out := make([]ReceiverAPI, len(dc.receivers))
	for i, r := range dc.receivers {
		out[i] = r
	}
	return out
}

// Start launches every stage goroutine and injects the token.
func (dc *Datacenter) Start() {
	dc.startMu.Lock()
	defer dc.startMu.Unlock()
	if dc.started {
		return
	}
	dc.started = true
	for _, b := range dc.batchers {
		dc.launch(b.run)
	}
	for _, f := range dc.filters {
		dc.launch(f.run)
	}
	for _, q := range dc.queues {
		dc.launch(q.run)
	}
	for _, s := range dc.senders {
		dc.launch(s.run)
	}
	for _, g := range dc.gossipers {
		g.Start()
	}
	dc.queues[0].TokenIn() <- dc.initialToken
}

// launch runs one stage machine until the datacenter stops.
func (dc *Datacenter) launch(run func(stop <-chan struct{})) {
	dc.group.go1(func() { run(dc.group.stop) })
}

// Stop halts the pipeline and joins all goroutines. Records still in
// flight are dropped; call Quiesce first if the experiment needs them
// applied.
func (dc *Datacenter) Stop() {
	dc.startMu.Lock()
	defer dc.startMu.Unlock()
	if !dc.started || dc.stopped {
		return
	}
	dc.stopped = true
	for _, g := range dc.gossipers {
		g.Stop()
	}
	dc.state.credits.close() // wake ingress calls blocked on credits
	dc.group.halt()
}

// ingressShedHint is the retry hint attached to shed rejections. Credits
// come back a token cycle at a time (up to a thousand records, well under a
// millisecond of drain), so after this long a saturated pipeline has
// plausibly freed some; sooner retries would mostly be shed again.
const ingressShedHint = time.Millisecond

// Inject pushes a batch of records into a round-robin-selected batcher —
// the entry point used by workload generators and the RPC ingestion
// endpoint. It always uses the blocking policy: when the pipeline's credit
// gate is exhausted it waits for the queues to drain (backpressure).
func (dc *Datacenter) Inject(recs []*core.Record) {
	_ = dc.inject(recs, false)
}

// TryInject is Inject under the shedding policy regardless of
// Config.ShedOnSaturation: when the credit gate is exhausted it rejects
// the whole batch with a retryable *SaturationError instead of blocking.
func (dc *Datacenter) TryInject(recs []*core.Record) error {
	return dc.inject(recs, true)
}

func (dc *Datacenter) inject(recs []*core.Record, shed bool) error {
	// Every ingress comes through here; a record the log could not read
	// back is refused before it costs a credit, a TOId or a position.
	if err := core.CheckEncodable(recs); err != nil {
		return err
	}
	g := dc.state.credits
	if g != nil {
		if shed {
			if !g.tryAcquire(len(recs)) {
				return &SaturationError{RetryAfter: ingressShedHint}
			}
		} else if !g.acquire(len(recs)) {
			return ErrStopped
		}
	}
	i := dc.rrBatcher.Add(1) - 1
	b := dc.batchers[int(i%uint64(len(dc.batchers)))]
	select {
	case b.In() <- recs:
		return nil
	case <-dc.group.stop:
		// The records never entered the pipeline; return their credits so
		// concurrent acquirers racing shutdown are not wedged.
		if g != nil {
			g.release(len(recs))
		}
		return ErrStopped
	}
}

// AppendAsync submits one record to the pipeline without waiting for its
// ids. Under the shed policy a saturated pipeline drops the record (the
// gate's shed counter records it); the blocking policy waits for credits.
func (dc *Datacenter) AppendAsync(body []byte, tags []core.Tag) {
	_ = dc.inject([]*core.Record{dc.newLocalRecord(body, tags, nil)}, dc.cfg.ShedOnSaturation)
}

// Append submits one record and waits until the pipeline applies it,
// returning its assigned TOId and LId.
func (dc *Datacenter) Append(body []byte, tags []core.Tag) (AppendAck, error) {
	return dc.AppendDeps(body, tags, nil)
}

// AppendDeps is Append with an explicit causal dependency vector (client
// sessions use it to encode their reads). Under the shed policy a
// saturated pipeline returns a retryable *SaturationError immediately.
func (dc *Datacenter) AppendDeps(body []byte, tags []core.Tag, deps []core.Dep) (AppendAck, error) {
	rec := dc.newLocalRecord(body, tags, deps)
	// The root span covers submit → applied ack; the record carries the
	// child context through every pipeline stage, so stage hops parent
	// under this root.
	root, rtc := trace.BeginRoot(trace.New(), "dc.append")
	if root.Sampled() {
		rec.Trace = rtc
	}
	ch := make(chan AppendAck, 1)
	dc.state.registerAck(rec, (chan<- AppendAck)(ch))
	if err := dc.inject([]*core.Record{rec}, dc.cfg.ShedOnSaturation); err != nil {
		dc.state.unregisterAck(rec)
		out := "error"
		if errors.Is(err, ErrPipelineSaturated) {
			out = "overload"
		}
		root.Finish(trace.Default(), out, 0, 1)
		return AppendAck{}, err
	}
	select {
	case ack := <-ch:
		root.Finish(trace.Default(), "", ack.LId, 1)
		return ack, nil
	case <-dc.group.stop:
		root.Finish(trace.Default(), "cancel", 0, 1)
		return AppendAck{}, ErrStopped
	}
}

func (dc *Datacenter) newLocalRecord(body []byte, tags []core.Tag, deps []core.Dep) *core.Record {
	if deps == nil {
		deps = dc.state.atable.SelfVector().Deps()
	}
	return &core.Record{Host: dc.cfg.Self, Deps: deps, Tags: tags, Body: body}
}

// Reader returns the FLStore client for reading this datacenter's log.
func (dc *Datacenter) Reader() *flstore.Client { return dc.reader }

// ATable exposes the datacenter's awareness table.
func (dc *Datacenter) ATable() *vclock.ATable { return dc.state.atable }

// Applied returns this datacenter's knowledge vector (max applied TOId per
// host) — the causal frontier of its log.
func (dc *Datacenter) Applied() vclock.Vector { return dc.state.atable.SelfVector() }

// Head returns the readable head of the datacenter's log.
func (dc *Datacenter) Head() (uint64, error) { return dc.reader.HeadExact() }

// LogRecords returns the applied records above the collected bound, up to
// the head of the log, in LId order: one read by position (test,
// equivalence-check and resync introspection).
func (dc *Datacenter) LogRecords() ([]*core.Record, error) {
	dc.gc.mu.Lock()
	defer dc.gc.mu.Unlock()
	return dc.reader.ReadRange(dc.gc.bound+1, 0)
}

// Machines returns every stage machine's (name, processed count) rows in
// pipeline order — the data behind the paper's Tables 2–5.
func (dc *Datacenter) Machines() []*StageMachine {
	var out []*StageMachine
	for _, b := range dc.batchers {
		out = append(out, &b.StageMachine)
	}
	for _, f := range dc.filters {
		out = append(out, &f.StageMachine)
	}
	for _, q := range dc.queues {
		out = append(out, &q.StageMachine)
	}
	out = append(out, dc.maintainerMachines...)
	for _, s := range dc.stores {
		out = append(out, &s.sm)
	}
	for _, s := range dc.senders {
		out = append(out, &s.StageMachine)
	}
	for _, r := range dc.receivers {
		out = append(out, &r.StageMachine)
	}
	return out
}

// Routing exposes the filter routing (elasticity operations).
func (dc *Datacenter) Routing() *FilterRouting { return dc.routing }

// Queues exposes the queue machines (elasticity and tests).
func (dc *Datacenter) Queues() []*Queue { return dc.queues }

// Maintainers exposes the FLStore maintainers.
func (dc *Datacenter) Maintainers() []*flstore.Maintainer { return dc.maintainers }

// Senders exposes the sender machines (resync and elasticity operations).
func (dc *Datacenter) Senders() []*Sender { return dc.senders }

// AppliedCount returns the total number of records applied to the log.
func (dc *Datacenter) AppliedCount() uint64 {
	var n uint64
	for _, q := range dc.queues {
		n += q.Applied.Value()
	}
	return n
}

// Quiesce waits until the number of applied records stops growing for
// settle (or deadline expires), so tests can stop without dropping
// in-flight records. It returns the final applied count.
func (dc *Datacenter) Quiesce(settle, deadline time.Duration) uint64 {
	start := time.Now()
	last := dc.AppliedCount()
	lastChange := time.Now()
	for {
		time.Sleep(settle / 4)
		cur := dc.AppliedCount()
		if cur != last {
			last = cur
			lastChange = time.Now()
		} else if time.Since(lastChange) >= settle {
			return cur
		}
		if time.Since(start) > deadline {
			return cur
		}
	}
}

// limitedMaintainer charges AppendAssigned batches against a stage machine
// before delegating, giving the pipeline blocking backpressure at the
// maintainer boundary.
type limitedMaintainer struct {
	flstore.MaintainerAPI
	sm StageMachine
}

func (lm *limitedMaintainer) AppendAssigned(recs []*core.Record) error {
	lm.sm.work(len(recs))
	return lm.MaintainerAPI.AppendAssigned(recs)
}

// countingStore charges stored batches against the "Store" machine.
type countingStore struct {
	storage.Store
	sm StageMachine
}

func (cs *countingStore) Append(r *core.Record) error {
	cs.sm.work(1)
	return cs.Store.Append(r)
}

func (cs *countingStore) AppendBatch(rs []*core.Record) error {
	cs.sm.work(len(rs))
	return cs.Store.AppendBatch(rs)
}
