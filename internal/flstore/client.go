package flstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Client is the linked library application clients use to talk to FLStore
// (§3, §5.1): it learns the cluster layout from the controller once at
// session start, then appends to and reads from the log maintainers
// directly, consulting indexers only for tag-based reads. The client
// always drives a replica.Session over the latest epoch's members (an
// unreplicated deployment is a layout of R = 1): appends go to each range's
// acting primary and fan out to its group, reads fail over across the
// group, and head computation takes each range's group-wide maximum so a
// dead maintainer doesn't freeze the head of the log.
type Client struct {
	placement   Placement
	epochs      []Epoch
	maintainers []MaintainerAPI
	indexers    []IndexerAPI

	// epochMembers holds per-epoch maintainer handles, index-aligned with
	// epochs — the routing side of epoch-carried topology (§6.3). The last
	// entry is the same slice as maintainers (so SetMaintainer keeps both
	// views coherent); earlier entries serve reads below their epoch's
	// successor boundary until the old members retire.
	epochMembers [][]MaintainerAPI

	// session is the replication layer over the latest epoch's members.
	session *replica.Session

	// readRetries/retryBackoff configure how long reads wait for the head
	// of the log to pass the requested position before giving up: up to
	// readRetries attempts on a capped-exponential schedule seeded at
	// retryBackoff; configured via WithReadRetries / WithRetryBackoff.
	readRetries  int
	retryBackoff time.Duration

	// appendRetries/appendBackoff bound the overload-retry loop on the
	// append path (0 retries = surface ErrOverloaded to the caller, the
	// pre-admission-control behavior open-loop generators rely on);
	// configured via WithAppendRetries / WithAppendBackoff.
	appendRetries int
	appendBackoff time.Duration
}

// readJitter is the shared jitter stream for read-retry backoff.
var readJitter atomic.Uint64

func init() { readJitter.Store(uint64(time.Now().UnixNano()) | 1) }

// jitterRnd returns uniform [0,1) samples (splitmix64, lock-free).
func jitterRnd() float64 {
	z := readJitter.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return float64((z^(z>>31))>>11) / (1 << 53)
}

// isLogicError classifies FLStore errors that must propagate to the caller
// rather than trigger replica failover: they describe the request or the
// log's state, not the health of the member that served them.
func isLogicError(err error) bool {
	return errors.Is(err, core.ErrNoSuchRecord) ||
		errors.Is(err, core.ErrPastHead) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrWrongMaintainer) ||
		errors.Is(err, ErrNotReplica) ||
		errors.Is(err, ErrOrderBacklog) ||
		errors.Is(err, ErrEpochSealed) ||
		errors.Is(err, storage.ErrDuplicate)
}

// NewClient starts a session: it polls the controller for the cluster
// configuration and dials every maintainer and indexer over TCP.
func NewClient(ctrl ControllerAPI, opts ...ClientOption) (*Client, error) {
	cfg, err := ctrl.GetConfig()
	if err != nil {
		return nil, fmt.Errorf("flstore: session init: %w", err)
	}
	c := &Client{
		placement:    cfg.Placement,
		epochs:       cfg.Epochs,
		readRetries:  50,
		retryBackoff: 2 * time.Millisecond,
	}
	if len(c.epochs) == 0 {
		// A controller normalizes its journal; tolerate a bare Config.
		c.epochs = []Epoch{{FirstLId: 1, Placement: cfg.Placement}}
	}
	// Dial every epoch's member set, sharing connections by address: a
	// maintainer that survives a reassignment (or a pre-topology journal
	// where every epoch inherits the top-level list) is dialed once.
	dialed := make(map[string]MaintainerAPI)
	dial := func(addr string) (MaintainerAPI, error) {
		if m, ok := dialed[addr]; ok {
			return m, nil
		}
		rc, err := rpc.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("flstore: dialing maintainer %s: %w", addr, err)
		}
		m := NewMaintainerClient(rc)
		dialed[addr] = m
		return m, nil
	}
	c.epochMembers = make([][]MaintainerAPI, len(c.epochs))
	for i, e := range c.epochs {
		addrs := e.MaintainerAddrs
		if len(addrs) == 0 {
			addrs = cfg.MaintainerAddrs
		}
		if len(addrs) != e.Placement.NumMaintainers {
			return nil, fmt.Errorf("flstore: epoch %d has %d addrs for placement of %d",
				i, len(addrs), e.Placement.NumMaintainers)
		}
		members := make([]MaintainerAPI, len(addrs))
		for j, addr := range addrs {
			if members[j], err = dial(addr); err != nil {
				return nil, err
			}
		}
		c.epochMembers[i] = members
	}
	c.maintainers = c.epochMembers[len(c.epochMembers)-1]
	for _, addr := range cfg.IndexerAddrs {
		rc, err := rpc.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("flstore: dialing indexer %s: %w", addr, err)
		}
		c.indexers = append(c.indexers, NewIndexerClient(rc))
	}
	ack := replica.AckMajority
	if cfg.AckPolicy != "" {
		if ack, err = replica.ParseAckPolicy(cfg.AckPolicy); err != nil {
			return nil, err
		}
	}
	if err := c.initSession(cfg.Replication, ack); err != nil {
		return nil, err
	}
	return c.configure(opts), nil
}

// NewDirectClient wires a client to in-process (or pre-dialed) component
// APIs — the path used by simulations and tests. Replication is off
// (R = 1); use NewReplicatedDirectClient for replica groups.
func NewDirectClient(p Placement, maintainers []MaintainerAPI, indexers []IndexerAPI, opts ...ClientOption) (*Client, error) {
	return NewReplicatedDirectClient(p, maintainers, indexers, 1, replica.AckOne, opts...)
}

// NewReplicatedDirectClient wires a client to in-process (or pre-dialed)
// component APIs with a replica layout of R copies per range under the
// given ack policy.
func NewReplicatedDirectClient(p Placement, maintainers []MaintainerAPI, indexers []IndexerAPI, r int, ack replica.AckPolicy, opts ...ClientOption) (*Client, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(maintainers) != p.NumMaintainers {
		return nil, fmt.Errorf("flstore: %d maintainers for placement of %d", len(maintainers), p.NumMaintainers)
	}
	c := &Client{
		placement:    p,
		epochs:       []Epoch{{FirstLId: 1, Placement: p}},
		maintainers:  maintainers,
		epochMembers: [][]MaintainerAPI{maintainers},
		indexers:     indexers,
		readRetries:  50,
		retryBackoff: 2 * time.Millisecond,
	}
	if err := c.initSession(r, ack); err != nil {
		return nil, err
	}
	return c.configure(opts), nil
}

// configure finishes construction. Options apply last: WithReadPolicy acts
// on the replica session, which must exist by then.
func (c *Client) configure(opts []ClientOption) *Client {
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// initSession builds the replica session over the wired maintainers; an
// unreplicated deployment (R <= 1) is a layout of one copy per range.
func (c *Client) initSession(r int, ack replica.AckPolicy) error {
	if r < 1 {
		r = 1
	}
	members := make([]replica.Member, len(c.maintainers))
	for i, m := range c.maintainers {
		members[i] = m
	}
	p := c.placement
	s, err := replica.NewSession(members, replica.SessionConfig{
		Layout:      replica.Layout{N: p.NumMaintainers, R: r},
		Ack:         ack,
		Owner:       func(lid uint64) int { return p.Owner(lid) },
		IsFatal:     isLogicError,
		IsRetryable: IsRetryable,
	})
	if err != nil {
		return err
	}
	// Sessions reaching the first maintainer over one connection steer by
	// the one view it keeps (rpc's Peer), so each sees the others' appends.
	if mc, ok := c.maintainers[0].(*maintainerClient); ok {
		if conn, ok := mc.c.(interface{ Peer(any) any }); ok {
			if v, ok := conn.Peer(replica.NewView(p.NumMaintainers)).(*replica.View); ok {
				s.SteerBy(v)
			}
		}
	}
	c.session = s
	return nil
}

// Placement returns the placement the client is operating under.
func (c *Client) Placement() Placement { return c.placement }

// Session exposes the replication layer (never nil): tests and operators
// use it for health, catch-up, and rejoin.
func (c *Client) Session() *replica.Session { return c.session }

// Append inserts a record with the given body and tags into the shared log
// (§3's Append(record, tags)) and returns the assigned LId. The record is
// sent to the acting primary of the range holding the head of the log back
// (replica.Session.Append), which post-assigns the position (and, under
// replication, fans copies out to the group before acknowledging).
func (c *Client) Append(body []byte, tags []core.Tag) (uint64, error) {
	return c.AppendCtx(context.Background(), body, tags)
}

// AppendCtx is Append with cancellation: ctx aborts the overload-retry
// backoff between attempts (a request already in flight is
// not interrupted — the RPC substrate has no cancel frame).
func (c *Client) AppendCtx(ctx context.Context, body []byte, tags []core.Tag) (uint64, error) {
	rec := &core.Record{Tags: tags, Body: body}
	lids, err := c.AppendBatchCtx(ctx, []*core.Record{rec})
	if err != nil {
		return 0, err
	}
	return lids[0], nil
}

// AppendBatch inserts many records in one round trip to one maintainer;
// their assigned LIds preserve the batch order (§5.4's same-maintainer
// explicit ordering).
func (c *Client) AppendBatch(recs []*core.Record) ([]uint64, error) {
	return c.AppendBatchCtx(context.Background(), recs)
}

// AppendBatchCtx is AppendBatch with cancellation and admission handling:
// when the maintainer rejects the batch with a retryable overload, the
// client waits out the server's RetryAfter hint (or its own capped-jittered
// backoff, whichever is longer) and retries up to WithAppendRetries times.
// With the default options (no retries) there is one attempt and errors
// surface to the caller.
func (c *Client) AppendBatchCtx(ctx context.Context, recs []*core.Record) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(recs)
	// The root span covers the whole client-visible append; its
	// pre-allocated id parents every downstream hop via the records'
	// trace contexts. Unsampled appends pay one branch here (plus the
	// slow-op arm) and skip every stamping loop below.
	root, rtc := trace.BeginRoot(trace.New(), "client.append")
	if root.Sampled() {
		for _, r := range recs {
			r.Trace = rtc
		}
	}
	for attempt := 0; ; attempt++ {
		lids, err := c.session.Append(recs)
		if err == nil {
			var lid0 uint64
			if len(lids) > 0 {
				lid0 = lids[0]
			}
			if root.Sampled() {
				// Restamp the records' contexts at completion: a caller
				// chaining a visibility-wait hop from rec.Trace then
				// covers [append done, visible], not the append again.
				end := time.Now().UnixNano()
				for _, r := range recs {
					r.Trace = rtc
					r.Trace.At = end
				}
			}
			root.Finish(trace.Default(), "", lid0, n)
			return lids, nil
		}
		if attempt >= c.appendRetries || !IsRetryable(err) {
			root.Finish(trace.Default(), appendOutcome(err), 0, n)
			return nil, err
		}
		hint := RetryAfter(err)
		base := c.appendBackoff
		if base <= 0 {
			base = 2 * time.Millisecond
		}
		bo := rpc.Backoff{Base: base, Max: 16 * base, Factor: 2, Jitter: 0.2}
		d := bo.Delay(attempt+1, jitterRnd)
		if hint > d {
			d = hint
		}
		if err := sleepCtx(ctx, d); err != nil {
			root.Finish(trace.Default(), "cancel", 0, n)
			return nil, err
		}
		if root.Sampled() {
			rtc.Hop(trace.Default(), "client.backoff", int64(d), "overload", 0, n)
			for _, r := range recs {
				r.Trace = rtc
			}
		}
	}
}

// AppendAfter inserts records constrained to positions after minLId at the
// given maintainer index (§5.4's cross-maintainer explicit ordering).
func (c *Client) AppendAfter(maintainer int, minLId uint64, recs []*core.Record) ([]uint64, error) {
	if maintainer < 0 || maintainer >= len(c.maintainers) {
		return nil, fmt.Errorf("flstore: maintainer %d out of range", maintainer)
	}
	return c.maintainers[maintainer].AppendAfter(minLId, recs)
}

// Head returns the head of the log as known by one maintainer — every
// position at or below it is gap-free and readable.
func (c *Client) Head() (uint64, error) {
	// Ask any usable member; gossip keeps their estimates close.
	for i := range c.maintainers {
		if !c.session.Health().Usable(i) {
			continue
		}
		h, err := c.maintainers[i].Head()
		if err == nil {
			return h, nil
		}
		if isLogicError(err) {
			return 0, err
		}
	}
	return 0, replica.ErrNoUsableGroup
}

// HeadExact polls every range's next-unfilled position and computes the
// precise head, bypassing gossip staleness. Each range's frontier is the
// maximum over its group's usable members, so the head keeps advancing
// while a maintainer is down. Get-transactions use this to pin their
// snapshot (Algorithm 1 line 2).
func (c *Client) HeadExact() (uint64, error) {
	next, err := c.session.Frontiers()
	if err != nil {
		return 0, err
	}
	return Head(next), nil
}

// epochIndexOf resolves the epoch journal entry in force at lid.
func epochIndexOf(epochs []Epoch, lid uint64) (int, error) {
	if len(epochs) == 0 {
		return 0, errors.New("flstore: empty epoch journal")
	}
	i := sort.Search(len(epochs), func(i int) bool { return epochs[i].FirstLId > lid })
	if i == 0 {
		return 0, fmt.Errorf("flstore: LId %d precedes first epoch", lid)
	}
	return i - 1, nil
}

// readAt runs one read-side call against range owner of epoch ei. Failover
// routing knows only the latest epoch's groups, so that epoch's ranges go
// through the session; a range of an earlier epoch routes directly to that
// epoch's own member via the journal. fn returns its result through its
// closure.
func (c *Client) readAt(ei, owner int, fn func(MaintainerAPI) error) error {
	if ei == len(c.epochs)-1 {
		// Every session member was installed as a MaintainerAPI
		// (initSession, SetMaintainer), so the conversion back is total.
		return c.session.ReadWith(owner, func(m replica.Member) error { return fn(m.(MaintainerAPI)) })
	}
	return fn(c.epochMembers[ei][owner])
}

// ReadLId returns the record at lid, retrying while the position is beyond
// the gossiped head (§5.4: a read at i must wait until no gap exists below
// i). Under replication the read fails over across the owning group.
func (c *Client) ReadLId(lid uint64) (*core.Record, error) {
	return c.ReadLIdCtx(context.Background(), lid)
}

// ReadLIdCtx is ReadLId with cancellation: ctx aborts the past-head retry
// loop between attempts, returning ctx.Err().
func (c *Client) ReadLIdCtx(ctx context.Context, lid uint64) (*core.Record, error) {
	ei, err := epochIndexOf(c.epochs, lid)
	if err != nil {
		return nil, err
	}
	owner := c.epochs[ei].Placement.Owner(lid)
	var rec *core.Record
	read := func(m MaintainerAPI) (err error) {
		rec, err = m.Read(lid)
		return err
	}
	// Past-head waits resolve as soon as the gap below the position fills,
	// so retry on a capped-exponential schedule with jitter (the PR-3
	// redial schedule): early attempts are cheap and tight, later ones
	// back off instead of hammering a stalled head. Reads blocked on an
	// unresolved invalidation (every group member knows the position is
	// assigned but none has the payload yet — e.g. mid-failover) retry on
	// the same schedule, stretched to the server's pacing hint.
	bo := rpc.Backoff{Base: c.retryBackoff, Max: 8 * c.retryBackoff, Factor: 2, Jitter: 0.2}
	var lastErr error
	for attempt := 0; attempt <= c.readRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		err := c.readAt(ei, owner, read)
		if err == nil {
			return rec, nil
		}
		lastErr = err
		if !errors.Is(err, core.ErrPastHead) && !errors.Is(err, ErrReadBlocked) {
			return nil, err
		}
		if c.retryBackoff > 0 {
			d := bo.Delay(attempt+1, jitterRnd)
			if hint := RetryAfter(err); hint > d {
				d = hint
			}
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
		}
	}
	return nil, lastErr
}

// Read returns the records matching the rule (§3's Read(rules)). Rules
// with a tag key are resolved through the indexers when there are any.
// Every other rule reads its LId window by position — one range read, up
// to the head of the log, in LId order — and keeps the records that match.
func (c *Client) Read(rule core.Rule) ([]*core.Record, error) {
	if rule.TagKey != "" && len(c.indexers) > 0 {
		return c.readByTag(rule)
	}
	window, err := c.ReadRange(max(rule.MinLId, 1), rule.EffectiveMaxLId())
	if err != nil {
		return nil, err
	}
	var recs []*core.Record
	for _, rec := range window {
		if rule.Match(rec) {
			recs = append(recs, rec)
		}
	}
	if rule.MostRecent {
		slices.Reverse(recs)
	}
	return limitTo(recs, rule.Limit), nil
}

// limitTo cuts recs at limit (0: no cap).
func limitTo(recs []*core.Record, limit int) []*core.Record {
	if limit > 0 && len(recs) > limit {
		return recs[:limit]
	}
	return recs
}

func (c *Client) readByTag(rule core.Rule) ([]*core.Record, error) {
	// Reads must not cross the head of the log (§5.4): a tagged record
	// above HL may exist at a maintainer while an earlier position is
	// still a gap, so cap the lookup at the head.
	head, err := c.HeadExact()
	if err != nil {
		return nil, err
	}
	if head == 0 {
		return nil, nil
	}
	q := LookupQuery{
		Key:             rule.TagKey,
		Cmp:             rule.TagCmp,
		Value:           rule.TagValue,
		MaxLIdExclusive: rule.MaxLIdExclusive,
		MostRecent:      rule.MostRecent,
	}
	// The indexer sees tags and LIds only, so it may cut at the limit
	// itself only when no constraint it cannot check would drop some of
	// what it returns.
	if rule.MinLId == 0 && !rule.HasHost && rule.MinTOId == 0 && rule.MaxTOId == 0 {
		q.Limit = rule.Limit
	}
	if rule.MaxLId != 0 && (q.MaxLIdExclusive == 0 || rule.MaxLId+1 < q.MaxLIdExclusive) {
		q.MaxLIdExclusive = rule.MaxLId + 1
	}
	if q.MaxLIdExclusive == 0 || q.MaxLIdExclusive > head+1 {
		q.MaxLIdExclusive = head + 1
	}
	ix := c.indexers[IndexerFor(rule.TagKey, len(c.indexers))]
	lids, err := ix.Lookup(q)
	if err != nil {
		return nil, err
	}
	wanted := lids[:0]
	for _, lid := range lids {
		if lid >= rule.MinLId {
			wanted = append(wanted, lid)
		}
	}
	// One batched fetch per owning maintainer instead of a serial
	// round trip per position.
	fetched, err := c.ReadLIds(wanted)
	if err != nil {
		return nil, err
	}
	recs := make([]*core.Record, 0, len(fetched))
	for _, rec := range fetched {
		// The indexer prunes by tag and LId; re-check the full rule
		// (host/TOId constraints) before returning.
		if rule.Match(rec) {
			recs = append(recs, rec)
		}
	}
	return limitTo(recs, rule.Limit), nil
}

// Maintainers exposes the session's maintainer handles (used by layered
// systems such as stream readers that partition work across maintainers).
func (c *Client) Maintainers() []MaintainerAPI { return c.maintainers }

// SetMaintainer replaces the handle at index i — the rewiring done after a
// maintainer restarts on a fresh connection. The replica session is updated
// in lockstep.
func (c *Client) SetMaintainer(i int, m MaintainerAPI) error {
	if i < 0 || i >= len(c.maintainers) {
		return fmt.Errorf("flstore: maintainer %d out of range", i)
	}
	c.session.SetMember(i, m)
	c.maintainers[i] = m
	return nil
}

// Tail streams the log in LId order starting at fromLId (≥1): fn is
// called for every record at or below the advancing head of the log, in
// position order with no gaps, until ctx is cancelled or fn returns
// false. It is a push subscription: the client parks on the laggard
// range's TailWait long-poll and drains each newly covered window with
// scatter-gather range reads merged by placement — no poll tick, no
// rescans, no sort.
func (c *Client) Tail(ctx context.Context, fromLId uint64, fn func(*core.Record) bool) error {
	if fromLId == 0 {
		fromLId = 1
	}
	cursor := fromLId
	for {
		head, err := c.waitHead(ctx, cursor, time.Time{})
		if err != nil {
			return err
		}
		for cursor <= head {
			hi := cursor + tailChunk - 1
			if hi > head {
				hi = head
			}
			// Each tail window gets its own sampling decision, so a
			// long-lived subscription contributes traces at the sample
			// rate rather than one trace at start.
			window, err := c.readRange(ctx, trace.New(), cursor, hi)
			if err != nil {
				return err
			}
			for _, rec := range window {
				if !fn(rec) {
					return nil
				}
			}
			cursor = hi + 1
		}
	}
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
